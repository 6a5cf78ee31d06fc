// Package sim provides the deterministic discrete-event simulation kernel
// used by every other substrate in the PageForge reproduction: a cycle
// clock, an event heap, a seedable pseudo-random number generator, and
// streaming statistics collectors.
//
// All simulated time is expressed in processor cycles (uint64). The modeled
// machine runs at 2 GHz, so helpers are provided to convert wall-clock
// durations used by the paper (e.g. KSM's sleep_millisecs) into cycles.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle = uint64

// CyclesPerSecond is the modeled core frequency (Table 2: 2 GHz).
const CyclesPerSecond = 2_000_000_000

// MillisToCycles converts milliseconds of simulated wall-clock time to cycles.
func MillisToCycles(ms float64) Cycle {
	return Cycle(math.Round(ms * CyclesPerSecond / 1e3))
}

// Event is a callback scheduled to fire at a specific cycle.
type Event struct {
	when Cycle
	seq  uint64 // tie-breaker: FIFO among events at the same cycle
	fn   func(now Cycle)
	dead bool
}

// When reports the cycle at which the event is scheduled to fire.
func (e *Event) When() Cycle { return e.when }

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired is a no-op.
func (e *Event) Cancel() { e.dead = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same cycle fire in FIFO order, which makes runs fully deterministic.
type Engine struct {
	now    Cycle
	seq    uint64
	events eventHeap
	fired  uint64
}

// NewEngine returns an engine with the clock at cycle 0 and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued (including canceled ones that
// have not been reaped yet).
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute cycle when. Scheduling in the past
// panics: it always indicates a modeling bug.
func (e *Engine) At(when Cycle, fn func(now Cycle)) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, before now=%d", when, e.now))
	}
	ev := &Event{when: when, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func(now Cycle)) *Event {
	return e.At(e.now+delay, fn)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.dead {
			continue
		}
		e.now = ev.when
		e.fired++
		ev.fn(e.now)
		return true
	}
	return false
}

// RunUntil fires events until the clock would pass the deadline cycle or the
// queue drains. The clock is left at min(deadline, last event time). Events
// scheduled exactly at the deadline do fire.
func (e *Engine) RunUntil(deadline Cycle) {
	for len(e.events) > 0 {
		// Peek.
		next := e.events[0]
		if next.dead {
			heap.Pop(&e.events)
			continue
		}
		if next.when > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Advance moves the clock forward by delta without firing events. It panics
// if a pending event would be skipped; it exists for simple open-loop models
// that interleave event-driven and analytic phases.
func (e *Engine) Advance(delta Cycle) {
	target := e.now + delta
	for len(e.events) > 0 {
		next := e.events[0]
		if next.dead {
			heap.Pop(&e.events)
			continue
		}
		if next.when <= target {
			panic("sim: Advance would skip a pending event; use RunUntil")
		}
		break
	}
	e.now = target
}
