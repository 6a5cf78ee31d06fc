package sim

import (
	"testing"
)

func TestEngineFiresInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Cycle) { order = append(order, 3) })
	e.At(10, func(Cycle) { order = append(order, 1) })
	e.At(20, func(Cycle) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Cycle) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.At(100, func(now Cycle) {
		e.After(50, func(now Cycle) { at = now })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Cycle) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Cycle) {})
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func(Cycle) { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	e.At(10, func(now Cycle) { fired = append(fired, now) })
	e.At(20, func(now Cycle) { fired = append(fired, now) })
	e.At(30, func(now Cycle) { fired = append(fired, now) })
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100 (deadline past last event)", e.Now())
	}
}

func TestAdvanceRejectsSkippingEvents(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Cycle) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance skipped a pending event without panicking")
		}
	}()
	e.Advance(20)
}

func TestAdvanceMovesClock(t *testing.T) {
	e := NewEngine()
	e.Advance(123)
	if e.Now() != 123 {
		t.Fatalf("clock = %d, want 123", e.Now())
	}
}

func TestTimeConversions(t *testing.T) {
	if got := MillisToCycles(5); got != 10_000_000 {
		t.Errorf("MillisToCycles(5) = %d, want 10e6", got)
	}
}

func TestEngineCascadedEvents(t *testing.T) {
	// An event chain where each event schedules the next; exercises heap
	// growth during Step.
	e := NewEngine()
	count := 0
	var step func(now Cycle)
	step = func(now Cycle) {
		count++
		if count < 1000 {
			e.After(1, step)
		}
	}
	e.At(0, step)
	e.Run()
	if count != 1000 {
		t.Fatalf("chain fired %d times, want 1000", count)
	}
	if e.Now() != 999 {
		t.Fatalf("clock = %d, want 999", e.Now())
	}
	if e.Fired() != 1000 {
		t.Fatalf("Fired() = %d, want 1000", e.Fired())
	}
}
