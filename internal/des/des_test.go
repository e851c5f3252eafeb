package des

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
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

func TestNaNTimePanics(t *testing.T) {
	for name, call := range map[string]func(e *Engine){
		"Schedule":         func(e *Engine) { e.Schedule(math.NaN(), func() {}) },
		"SchedulePriority": func(e *Engine) { e.SchedulePriority(math.NaN(), func() {}) },
		"RunBefore":        func(e *Engine) { e.RunBefore(math.NaN()) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.RunBefore(100)
			defer func() {
				if recover() == nil {
					t.Fatal("a NaN time should panic")
				}
				if e.Now() != 100 {
					t.Fatalf("Now = %v after the rejected call, want 100", e.Now())
				}
			}()
			call(e)
		})
	}
}

// Schedule numbers its events, and Running names the one being run, so
// a callback bound once can ignore its superseded events.
func TestRunningNamesTheFiringEvent(t *testing.T) {
	e := NewEngine()
	if e.Running() != 0 {
		t.Fatalf("Running before any Step = %d, want 0", e.Running())
	}
	var live int64
	var fired []float64
	tick := func() {
		if e.Running() == live {
			fired = append(fired, e.Now())
		}
	}
	e.Schedule(5, tick) // superseded below
	live = e.Schedule(3, tick)
	e.Run()
	if len(fired) != 1 || fired[0] != 3 || e.Now() != 5 {
		t.Fatalf("fired %v, Now %v: want only the live tick at 3, clock at 5", fired, e.Now())
	}
}

// refEngine is the engine this package shipped before events moved by
// value into a hand-written heap: *event values boxed through
// container/heap. TestEngineMatchesReference drives both in lockstep.
type refEngine struct {
	now     float64
	seq     int64
	headSeq int64
	queue   refHeap
}

func (e *refEngine) Schedule(at float64, fn func()) {
	if at < e.now {
		panic("past")
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) SchedulePriority(at float64, fn func()) {
	if at < e.now {
		panic("past")
	}
	e.headSeq++
	heap.Push(&e.queue, &event{at: at, seq: e.headSeq, fn: fn})
}

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *refEngine) RunBefore(t float64) {
	for len(e.queue) > 0 && e.queue[0].at < t {
		e.Step()
	}
	e.now = t
}

type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// TestEngineMatchesReference drives the engine and refEngine with the
// same seeded interleavings of Schedule, SchedulePriority, superseded
// ticks, RunBefore and Step, and compares the firing order and the
// clock after every call. Times sit on a coarse grid so simultaneous
// events, and so the FIFO and priority tiebreaks, are common. A tick
// is scheduled the way the controller does it: one callback, bound
// once, that acts only when the engine runs the latest tick's number;
// the reference captures a generation instead.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, ref := NewEngine(), &refEngine{headSeq: headSeqBase}
		var got, want []int
		var tickSeq int64
		var tickGen, refGen int
		tick := func() {
			if e.Running() == tickSeq {
				got = append(got, -1)
			}
		}
		id := 0
		for op := 0; op < 200; op++ {
			at := e.Now() + float64(rng.Intn(6))
			switch k := rng.Intn(10); {
			case k < 3:
				id++
				n := id
				e.Schedule(at, func() { got = append(got, n) })
				ref.Schedule(at, func() { want = append(want, n) })
			case k < 5:
				id++
				n := id
				e.SchedulePriority(at, func() { got = append(got, n) })
				ref.SchedulePriority(at, func() { want = append(want, n) })
			case k < 7:
				// A new tick supersedes the pending one, stale or not.
				tickSeq = e.Schedule(at, tick)
				tickGen++
				gen := tickGen
				ref.Schedule(at, func() {
					if gen == refGen {
						want = append(want, -1)
					}
				})
				refGen = gen
			case k < 8:
				e.RunBefore(at)
				ref.RunBefore(at)
			default:
				if e.Step() != ref.Step() {
					t.Fatalf("seed %d op %d: Step results differ", seed, op)
				}
			}
			if e.Now() != ref.now || !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: now %v/%v, fired %v, want %v", seed, op, e.Now(), ref.now, got, want)
			}
			if at, ok := e.NextAt(); ok != (len(ref.queue) > 0) || ok && at != ref.queue[0].at {
				t.Fatalf("seed %d op %d: NextAt differs", seed, op)
			}
		}
		for e.Step() {
			ref.Step()
			if e.Now() != ref.now || !slices.Equal(got, want) {
				t.Fatalf("seed %d drain: now %v/%v, fired %v, want %v", seed, e.Now(), ref.now, got, want)
			}
		}
		if ref.Step() {
			t.Fatalf("seed %d: reference still has events", seed)
		}
	}
}
