package memctrl

// Checkpoint support. The controller's only mutable state is its stats.

// ControllerState is the serialized image of a Controller.
type ControllerState struct {
	Stats Stats
}

// State captures the controller.
func (c *Controller) State() ControllerState { return ControllerState{Stats: c.Stats} }

// SetState restores the controller in place.
func (c *Controller) SetState(st ControllerState) { c.Stats = st.Stats }

// ScrubberState is the serialized image of a Scrubber.
type ScrubberState struct {
	Cursor  uint64
	Stats   ScrubStats
	UEAddrs []uint64
}

// State captures the scrubber.
func (s *Scrubber) State() ScrubberState {
	return ScrubberState{
		Cursor:  s.cursor,
		Stats:   s.Stats,
		UEAddrs: append([]uint64(nil), s.UEAddrs...),
	}
}

// SetState restores the scrubber in place.
func (s *Scrubber) SetState(st ScrubberState) {
	s.cursor = st.Cursor
	s.Stats = st.Stats
	s.UEAddrs = append(s.UEAddrs[:0], st.UEAddrs...)
}
