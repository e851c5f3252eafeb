// Package des is a minimal discrete-event simulation engine: a clock and
// a time-ordered event queue with stable FIFO ordering for simultaneous
// events. The multi-tenant controller (internal/core) drives job
// arrivals, placement retries, and shared EPR scheduling rounds through
// it — arrivals are scheduled up front, while the controller keeps one
// live "tick" event that it supersedes whenever an earlier wake-up
// becomes necessary.
//
// There is no cancel: a superseded event still fires and advances the
// clock. Callers tell a stale event from the live one by its sequence
// number instead of capturing state in a fresh closure: Schedule returns
// the number it gave the event, Running reports the number of the event
// being run, and the controller's single tick func, bound once, returns
// at once unless the two match. Events sit by value in a binary heap
// ordered by (time, sequence), so scheduling and stepping allocate
// nothing once the queue has grown.
package des

import "fmt"

// Engine owns the simulation clock and pending events. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     float64
	seq     int64
	headSeq int64
	// running is the sequence number of the event Step ran last.
	running int64
	queue   []event
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

// Schedule enqueues fn to run at absolute time at and returns the
// event's sequence number, which is positive and unique to the engine.
// Scheduling in the past or at NaN panics — that is always a logic bug
// in the caller.
func (e *Engine) Schedule(at float64, fn func()) int64 {
	e.check("scheduling at", at)
	e.seq++
	e.push(event{at: at, seq: e.seq, fn: fn})
	return e.seq
}

// SchedulePriority enqueues fn to run at absolute time at, ahead of
// every Schedule-queued event at the same instant; among themselves,
// priority events keep FIFO order. The controller schedules job
// arrivals this way so an arrival always precedes a controller tick at
// the same time — for the one-shot Run this matches scheduling all
// arrivals up front, and for the live controller it makes late
// submissions at time t indistinguishable from up-front ones.
func (e *Engine) SchedulePriority(at float64, fn func()) {
	e.check("scheduling at", at)
	e.headSeq++
	e.push(event{at: at, seq: e.headSeq, fn: fn})
}

// Running returns the sequence number of the event being run (the last
// one Step ran), so a callback bound once can tell which of its queued
// events fired. Before the first Step it is 0, which no event carries.
func (e *Engine) Running() int64 { return e.running }

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
	ev := e.pop()
	e.now = ev.at
	e.running = ev.seq
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
// live controller's step primitive. A t in the past or NaN panics.
func (e *Engine) RunBefore(t float64) {
	e.check("RunBefore", t)
	for len(e.queue) > 0 && e.queue[0].at < t {
		e.Step()
	}
	e.now = t
}

// check panics unless at is at or after the clock; NaN fails too, since
// every comparison with it is false and it would corrupt the ordering.
func (e *Engine) check(what string, at float64) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("des: %s %v, not at or after now %v", what, at, e.now))
	}
}

type event struct {
	at  float64
	seq int64 // FIFO tiebreak for simultaneous events
	fn  func()
}

// before orders events by time, then by sequence number. Sequence
// numbers are unique, so the order is total and the pop order does not
// depend on the heap's layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev to the binary min-heap and sifts it up.
func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	e.queue = q
}

// pop removes and returns the earliest event, moving the last event to
// the root and sifting it down.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the closure reference
	q = q[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && q[l].before(&q[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	e.queue = q
	return top
}
