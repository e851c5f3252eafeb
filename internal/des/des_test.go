package des

import (
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 10 {
			e.Schedule(e.Now()+1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run()
	if depth != 10 {
		t.Fatalf("depth = %d, want 10", depth)
	}
	if e.Now() != 9 {
		t.Fatalf("Now = %v, want 9", e.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine should return false")
	}
}

// Property: events always execute in nondecreasing time order, whatever
// the insertion order.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var seen []float64
		for _, raw := range times {
			at := float64(raw)
			e.Schedule(at, func() { seen = append(seen, at) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePriorityPrecedesSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(1, func() { order = append(order, "tick") })
	// Priority events beat earlier-scheduled normal events at the same
	// instant, and stay FIFO among themselves.
	e.SchedulePriority(1, func() { order = append(order, "arrive-a") })
	e.SchedulePriority(1, func() { order = append(order, "arrive-b") })
	e.Schedule(0, func() { order = append(order, "early") })
	e.Run()
	want := []string{"early", "arrive-a", "arrive-b", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePriorityPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	e.RunBefore(5)
	e.SchedulePriority(4, func() {})
}

func TestRunBeforeExcludesBoundary(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.Schedule(1, func() { fired = append(fired, 1) })
	e.Schedule(2, func() { fired = append(fired, 2) })
	e.RunBefore(2)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %v, want 2", e.Now())
	}
	// The boundary event is still pending and a priority event injected
	// at now precedes it.
	e.SchedulePriority(2, func() { fired = append(fired, -2) })
	e.Run()
	if len(fired) != 3 || fired[1] != -2 || fired[2] != 2 {
		t.Fatalf("fired = %v, want [1 -2 2]", fired)
	}
}

func TestRunBeforePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	e.RunBefore(5)
	e.RunBefore(4)
}

func TestNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty engine should report false")
	}
	e.Schedule(7, func() {})
	e.Schedule(3, func() {})
	if at, ok := e.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt = %v, %v, want 3, true", at, ok)
	}
}
