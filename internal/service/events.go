package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cloudqc/internal/core"
)

// Event types, in a job's lifecycle order. A preempted job may cycle
// placed→preempted→resumed any number of times before done.
const (
	// EventSubmit: the service accepted the submission (202 sent).
	EventSubmit = "submit"
	// EventQueued: the job's arrival entered the admission queue.
	EventQueued = "queued"
	// EventPlaced: admission reserved qubits and execution started.
	EventPlaced = "placed"
	// EventPreempted: preemption checkpointed the job off the cloud.
	EventPreempted = "preempted"
	// EventEvicted: a fault (QPU outage or shard drain) checkpointed
	// the job off its placement; it re-enters the queue under its
	// original id for re-placement elsewhere.
	EventEvicted = "evicted"
	// EventResumed: the checkpoint replayed onto a fresh placement
	// (possibly on another shard — Shard says where it landed).
	EventResumed = "resumed"
	// EventDone: the job settled; Status is "completed" or "failed".
	EventDone = "done"
	// EventDropped: a synthetic marker, never stored in the ring — a
	// resuming client's cursor predates the oldest retained event, so
	// Missed events were overwritten before it reconnected. Emitted
	// once at the head of the replay; the stream then continues from
	// the oldest retained event.
	EventDropped = "dropped"
)

// Event is one SSE payload: job Job (owned by tenant Tenant) underwent
// Type on shard Shard at virtual time VTime. Seq is the stream cursor —
// reconnect with Last-Event-ID (or ?since=) set to the last seen Seq to
// resume without gaps, as long as the server's event ring still holds
// it. Events are an in-memory convenience, not durable state: a
// restarted daemon regenerates them from WAL replay.
type Event struct {
	Seq    int     `json:"seq"`
	Type   string  `json:"type"`
	Job    int     `json:"job"`
	Tenant int     `json:"tenant"`
	Shard  int     `json:"shard"`
	VTime  float64 `json:"vtime"`
	// Status is the job's settled state on EventDone, empty otherwise.
	Status string `json:"status,omitempty"`
	// Missed counts ring-overwritten events on an EventDropped marker,
	// zero otherwise.
	Missed int `json:"missed,omitempty"`
}

// eventLog is a bounded ring of events with a broadcast channel:
// publishing closes the current wait channel, waking every blocked
// stream to collect what it missed. All access under Server.mu.
type eventLog struct {
	buf   []Event
	start int // ring index of the oldest retained event
	n     int
	seq   int // next sequence number
	// dropped counts events the full ring overwrote — the
	// cloudqcd_events_dropped_total series, and the reason resuming
	// clients can see a "dropped" marker.
	dropped int
	wake    chan struct{}
}

func newEventLog(capacity int) *eventLog {
	return &eventLog{buf: make([]Event, capacity), wake: make(chan struct{})}
}

// append stamps ev with the next sequence number, retains it (evicting
// the oldest event when full), and wakes blocked streams.
func (l *eventLog) append(ev Event) {
	ev.Seq = l.seq
	l.seq++
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = ev
		l.n++
	} else {
		l.buf[l.start] = ev
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// after returns copies of every retained event with Seq > since. A
// cursor that predates the oldest retained event gets a synthetic
// EventDropped marker first, telling the client how many events the
// ring overwrote in its gap; the marker's Seq is one below the oldest
// retained event so the stream's cursor stays monotone through it.
func (l *eventLog) after(since int) []Event {
	var out []Event
	if oldest := l.seq - l.n; since >= 0 && since+1 < oldest {
		out = append(out, Event{
			Seq: oldest - 1, Type: EventDropped, Job: -1, Tenant: -1, Shard: -1,
			Missed: oldest - 1 - since,
		})
	}
	for i := 0; i < l.n; i++ {
		ev := l.buf[(l.start+i)%len(l.buf)]
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out
}

// waitCh returns the channel the next append closes.
func (l *eventLog) waitCh() chan struct{} { return l.wake }

// onTransition is the federation's status-transition hook: it maps core
// lifecycle transitions onto wire events and settles completed and
// failed jobs. It fires synchronously inside StepUntil — the caller
// (locked's advance, Drain or Replay) already holds s.mu, so it must
// only touch plain state (never lock, never call back into the
// federation beyond reading the result slot of the shard that
// delivered the transition). That shard holds the
// job even mid-rehome, when ShardOf may still name another.
func (s *Server) onTransition(shard int, tr core.Transition) {
	if tr.To == core.StatusPending {
		// Internal: submission acceptance already emitted EventSubmit,
		// and a cross-shard resume's re-validation lands as EventResumed
		// when the checkpoint is re-placed.
		return
	}
	res, _ := s.f.Shard(shard).Result(tr.JobID)
	ev := Event{Job: tr.JobID, Tenant: res.Job.Tenant, Shard: shard, VTime: tr.At}
	switch {
	case tr.To == core.StatusQueued && tr.Reason == core.ReasonPreempted:
		ev.Type = EventPreempted
	case tr.To == core.StatusQueued && tr.Reason == core.ReasonEvicted:
		ev.Type = EventEvicted
	case tr.To == core.StatusQueued:
		ev.Type = EventQueued
	case tr.To == core.StatusRunning && tr.Reason == core.ReasonResumed:
		ev.Type = EventResumed
	case tr.To == core.StatusRunning:
		ev.Type = EventPlaced
	case tr.To == core.StatusCompleted || tr.To == core.StatusFailed:
		ev.Type = EventDone
		ev.Status = tr.To.String()
		s.settle(res)
	default:
		return
	}
	s.events.append(ev)
}

// handleEvents serves one SSE connection on either events route:
// replay the retained backlog past the client's cursor, then block for
// new events, advancing the virtual clock on a heartbeat so streams
// make progress even with no other traffic. /v1/jobs/{id}/events
// filters to one job and ends after its done event; /v1/events streams
// everything until the client disconnects. The first poll is also the
// per-job stream's existence check, so an unknown job's 404 goes out
// before any stream header.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := -1
	if r.PathValue("id") != "" {
		id, err := jobID(r)
		if err != nil {
			reply(w, 0, nil, err)
			return
		}
		job = id
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		reply(w, 0, nil, errors.New("streaming unsupported"))
		return
	}
	since := -1
	if c := r.Header.Get("Last-Event-ID"); c != "" {
		if n, err := strconv.Atoi(c); err == nil {
			since = n
		}
	} else if c := r.URL.Query().Get("since"); c != "" {
		if n, err := strconv.Atoi(c); err == nil {
			since = n
		}
	}

	heartbeat := time.NewTimer(s.heartbeat)
	defer heartbeat.Stop()
	for first := true; ; first = false {
		var evs []Event
		var wake chan struct{}
		err := s.locked(func(time.Time) error {
			if first && job >= 0 {
				if err := s.lookup(job); err != nil {
					return err
				}
			}
			evs, wake = s.events.after(since), s.events.waitCh()
			return nil
		})
		if first {
			if err != nil {
				reply(w, 0, nil, err)
				return
			}
			// SSE outlives any server write deadline by design.
			rc := http.NewResponseController(w)
			_ = rc.SetWriteDeadline(time.Time{})
			_ = rc.SetReadDeadline(time.Time{})
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusOK)
		} else if err != nil {
			return
		}

		done := false
		for _, ev := range evs {
			since = ev.Seq
			// Dropped markers pass the per-job filter: a gap in the ring
			// may have swallowed this job's events too.
			if job >= 0 && ev.Job != job && ev.Type != EventDropped {
				continue
			}
			writeSSE(w, ev)
			if job >= 0 && ev.Type == EventDone {
				done = true
			}
		}
		fl.Flush()
		if done {
			return
		}
		if !heartbeat.Stop() {
			select {
			case <-heartbeat.C:
			default:
			}
		}
		heartbeat.Reset(s.heartbeat)
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-heartbeat.C:
			// Keep proxies from idling the connection out, and re-enter
			// the loop so the poll above moves virtual time along.
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE frames one event: its Seq doubles as the SSE id, so
// EventSource's automatic Last-Event-ID reconnect resumes the cursor.
func writeSSE(w io.Writer, ev Event) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
}
