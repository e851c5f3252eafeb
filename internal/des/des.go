// Package des is a minimal discrete-event simulation engine: a clock and
// a time-ordered event queue with stable FIFO ordering for simultaneous
// events. The multi-tenant controller (internal/core) drives job
// arrivals, placement retries, and shared EPR scheduling rounds through
// it — arrivals are scheduled up front, while the controller keeps one
// live "tick" event that it supersedes (there is no cancel; callers
// guard stale closures, e.g. with a generation counter) whenever an
// earlier wake-up becomes necessary.
package des

import (
	"container/heap"
	"fmt"
)

// Engine owns the simulation clock and pending events. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     float64
	seq     int64
	headSeq int64
	queue   eventHeap
}

// NewEngine returns an engine with the clock at 0 and no events.
func NewEngine() *Engine {
	return &Engine{headSeq: headSeqBase}
}

// headSeqBase seeds the head-of-time sequence far below every normal
// sequence number, so SchedulePriority events sort before Schedule
// events at the same instant while staying FIFO among themselves.
const headSeqBase = -(int64(1) << 62)

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run at absolute time at. Scheduling in the
// past panics — that is always a logic bug in the caller.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, fn: fn})
}

// SchedulePriority enqueues fn to run at absolute time at, ahead of
// every Schedule-queued event at the same instant; among themselves,
// priority events keep FIFO order. The controller schedules job
// arrivals this way so an arrival always precedes a controller tick at
// the same time — for the one-shot Run this matches scheduling all
// arrivals up front, and for the live controller it makes late
// submissions at time t indistinguishable from up-front ones.
func (e *Engine) SchedulePriority(at float64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, e.now))
	}
	e.headSeq++
	heap.Push(&e.queue, &event{at: at, seq: e.headSeq, fn: fn})
}

// NextAt returns the time of the earliest pending event, or false when
// the queue is empty.
func (e *Engine) NextAt() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Step runs the earliest pending event, advancing the clock to its time.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunBefore executes events with time strictly < t, then advances the
// clock to t. Events at exactly t stay queued, so a caller can still
// inject priority events (job arrivals) at t that precede them — the
// live controller's step primitive.
func (e *Engine) RunBefore(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("des: RunBefore(%v) before now %v", t, e.now))
	}
	for len(e.queue) > 0 && e.queue[0].at < t {
		e.Step()
	}
	e.now = t
}

type event struct {
	at  float64
	seq int64 // FIFO tiebreak for simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
