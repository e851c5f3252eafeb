// Package service exposes a live CloudQC controller over HTTP JSON —
// the always-on, multi-tenant admission front the paper's cloud setting
// implies: tenants submit circuits to a central network-aware
// controller at any time, a virtual-time pacer maps the wall clock onto
// EPR-attempt rounds, and per-tenant token buckets plus in-flight
// quotas bound each tenant's submission pressure before admission even
// sees a job.
//
// Endpoints (all JSON unless noted; see docs/API.md for the complete
// reference — TestAPIDocCoverage keeps it in sync with this table):
//
//	POST /v1/jobs             submit a circuit (qlib name or inline
//	                          OpenQASM); 202 with the job id, 429 with a
//	                          retry hint when the tenant is over its
//	                          rate or quota, 503 when the backlog passed
//	                          the shedding watermark, 409 once the
//	                          backend is drained
//	GET  /v1/jobs/{id}        one job's status and (once settled) result
//	GET  /v1/jobs/{id}/events one job's lifecycle as server-sent events
//	GET  /v1/jobs/{id}/trace  one job's virtual-time span tree and JCT
//	                          attribution (404 while tracing is off)
//	GET  /v1/events           every job's lifecycle events (SSE)
//	POST /v1/faults           inject one fault event (admin): QPU
//	                          outage, link degradation, or shard drain;
//	                          logged to the WAL before the 202
//	GET  /v1/stats            stream aggregates: online stats +
//	                          per-tenant SLO + routing counters and
//	                          per-shard breakdown
//	GET  /v1/cluster          cluster state: virtual clock, per-QPU
//	                          load, per-shard snapshots
//	GET  /metrics             Prometheus text-format scrape
//
// The server owns a fed.Federation (a single cloud is a one-shard
// federation, bit-identical to a bare live controller). Every route
// reaches it through one seam, Server.locked, which serializes access
// and paces the virtual clock; the wall clock is injectable, so tests
// drive virtual time deterministically with httptest.
//
// Durability: with Config.WAL set, every clock advance and accepted
// submission is appended to a write-ahead log (submissions fsynced
// before admission), and Replay rebuilds a restarted daemon's state
// bit-identically from the recovered records. Overload: past
// Config.DegradeBacklog the admission mode degrades WFQ→FIFO; past
// Config.ShedBacklog submissions are shed with 503 + Retry-After.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/fed"
	"cloudqc/internal/metrics"
	"cloudqc/internal/plan"
	"cloudqc/internal/qasm"
	"cloudqc/internal/qlib"
	"cloudqc/internal/trace"
	"cloudqc/internal/wal"
)

// Config assembles a Server.
type Config struct {
	// Federation is the federation to serve (required; a single cloud
	// is a one-shard federation). The server assumes exclusive
	// ownership. Submissions carry no shard choice — the federation's
	// admission router decides.
	Federation *fed.Federation
	// TimeScale maps wall time onto virtual time: CX units per wall
	// second (default 1000). With Table I's 10-CX EPR attempt, the
	// default paces 100 EPR rounds per second.
	TimeScale float64
	// Rate is each tenant's sustained submission budget in jobs per
	// wall second (token-bucket refill). Non-positive disables rate
	// limiting.
	Rate float64
	// Burst is the token bucket's capacity — how many submissions a
	// tenant may fire back-to-back before Rate throttles it. Defaults
	// to max(1, ceil(Rate)).
	Burst int
	// MaxInFlight caps each tenant's unsettled jobs (pending + queued +
	// running); submissions beyond it are rejected 429 until jobs
	// settle. Non-positive means unlimited.
	MaxInFlight int
	// Now injects the wall clock; defaults to time.Now. Tests use a
	// fake clock to drive the pacer deterministically.
	Now func() time.Time
	// WAL, when non-nil, is the daemon's write-ahead log: the server
	// appends every virtual-clock advance and every accepted submission
	// (the latter fsynced before the job reaches admission, so a 202
	// implies durability). The server owns the log from here on. On
	// restart, pass wal.Open's recovered records to Replay before
	// serving traffic.
	WAL *wal.Log
	// DegradeBacklog is the load-shedding soft watermark, checked at
	// each accepted submission: while the federation backlog (pending +
	// queued jobs) is at or above it, admission degrades to FIFO —
	// cheaper than WFQ's per-tick ordering — and restores the configured
	// mode once the backlog falls below. Non-positive disables
	// degradation.
	DegradeBacklog int
	// ShedBacklog is the hard watermark: at or above it, submissions
	// are shed with 503 + Retry-After (never logged to the WAL, never
	// admitted). Non-positive disables shedding.
	ShedBacklog int
}

const (
	// eventBuffer bounds the in-memory SSE event ring; clients further
	// behind than the ring miss the overwritten events.
	eventBuffer = 8192
	// heartbeat is the SSE keep-alive interval: how often an idle event
	// stream re-advances virtual time and emits a comment line so
	// proxies keep the connection open.
	heartbeat = time.Second
)

// Server is the HTTP front of one federation. Create with New, mount
// anywhere (it implements http.Handler), and call Drain on shutdown to
// run the backlog dry.
type Server struct {
	mu  sync.Mutex
	cfg Config
	f   *fed.Federation
	mux *http.ServeMux
	// epoch anchors the wall→virtual mapping at the first request.
	epoch   time.Time
	buckets map[int]*bucket
	// inflight counts each tenant's unsettled jobs and settled caches
	// finished/failed results in settle order. Both change only in
	// accept and in the transition hook's settle, so no request walks
	// the in-flight backlog or the settled history to keep them current.
	inflight     map[int]int
	settled      []*core.JobResult
	settledDirty bool
	submitted    int
	draining     bool
	// events is the bounded SSE ring fed by the federation's
	// status-transition hook; heartbeat is the streams' keep-alive
	// interval. Both start at their constants; tests shrink them.
	events    *eventLog
	heartbeat time.Duration
	// walV is the highest virtual time logged to the WAL; -1 until the
	// first advance so a freshly anchored epoch's v=0 is still logged
	// (and duplicate replay is detected from the very first record).
	walV float64
	// baseMode is the admission mode configured at build time — what
	// degraded shards return to; degraded records the current state.
	baseMode core.Mode
	degraded bool
	// Per-tenant rejection counters for /metrics, by cause; /v1/stats
	// reports their sums.
	rejRate  map[int]int
	rejQuota map[int]int
	shed     map[int]int
}

// New validates the configuration and returns a serving-ready Server.
func New(cfg Config) (*Server, error) {
	f := cfg.Federation
	if f == nil {
		return nil, errors.New("service: Config.Federation is required")
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("service: negative TimeScale %v", cfg.TimeScale)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1000
	}
	if cfg.Burst <= 0 {
		cfg.Burst = int(math.Ceil(cfg.Rate))
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:       cfg,
		f:         f,
		buckets:   make(map[int]*bucket),
		inflight:  make(map[int]int),
		events:    newEventLog(eventBuffer),
		heartbeat: heartbeat,
		walV:      -1,
		baseMode:  f.Mode(),
		rejRate:   make(map[int]int),
		rejQuota:  make(map[int]int),
		shed:      make(map[int]int),
	}
	f.SetOnTransition(s.onTransition)
	s.mux = http.NewServeMux()
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.method+" "+rt.pattern, rt.handler)
	}
	return s, nil
}

// route is one registered endpoint and its handler. The same table
// drives mux registration and TestAPIDocCoverage, so docs/API.md cannot
// silently drift from the served surface.
type route struct {
	method, pattern, summary string
	handler                  http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{"POST", "/v1/jobs", "submit a circuit for execution", s.handleSubmit},
		{"GET", "/v1/jobs/{id}", "one job's status and result", s.handleJob},
		{"GET", "/v1/jobs/{id}/events", "one job's lifecycle as server-sent events", s.handleEvents},
		{"GET", "/v1/jobs/{id}/trace", "one job's span tree and JCT attribution", s.handleTrace},
		{"GET", "/v1/events", "all jobs' lifecycle events (SSE)", s.handleEvents},
		{"POST", "/v1/faults", "inject a fault event (admin)", s.handleFaults},
		{"GET", "/v1/stats", "stream aggregates: online, SLO, routing", s.handleStats},
		{"GET", "/v1/cluster", "cluster state under the virtual clock", s.handleCluster},
		{"GET", "/metrics", "Prometheus text-format metrics", s.handleMetrics},
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// locked is the one way a route reaches the server's state. It takes
// s.mu, advances the pacer once to cfg.Now(), and runs fn with that
// instant, so submit's token bucket refills to the instant the clock
// advanced to; an advance error is returned without running fn. The
// unlock is deferred, so a panic inside fn (which net/http recovers)
// cannot leave the daemon wedged. Routes build their answer inside fn
// and write it after locked returns: a client that stops reading its
// socket stalls only its own connection, never the daemon. Drain and
// Replay lock directly because neither may advance the pacer.
func (s *Server) locked(fn func(now time.Time) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	if err := s.advance(now); err != nil {
		return err
	}
	return fn(now)
}

// advance maps the current wall instant onto virtual time and steps
// every shard there; only locked calls it. The first call anchors the
// epoch, so virtual time 0 is the first request, not server start.
func (s *Server) advance(now time.Time) error {
	if s.draining {
		return nil
	}
	if s.epoch.IsZero() {
		s.epoch = now
	}
	v := now.Sub(s.epoch).Seconds() * s.cfg.TimeScale
	// Step boundaries are semantically significant — shared-WFQ billing
	// order and preemption rehoming happen per StepUntil — so replay
	// must walk the same boundaries: log each advance (coalescing an
	// unmoved clock). Losing unsynced step records on crash only ends
	// replay at an earlier virtual time.
	if s.cfg.WAL != nil && v > s.walV {
		s.walV = v
		if werr := s.cfg.WAL.AppendStep(v); werr != nil {
			return werr
		}
	}
	err := s.f.StepUntil(v)
	if errors.Is(err, core.ErrDrained) {
		// Drained out-of-band (not via Server.Drain): there is nothing
		// left to step. Status and stats keep answering; submissions
		// fall through to the federation's typed rejection (409).
		return nil
	}
	return err
}

// settle moves a job that just completed or failed from its tenant's
// in-flight count into the settled cache; the transition hook calls it
// once per job. The cache is kept sorted by job id (= submission order)
// only lazily: when jobs settle in id order — the common case under
// FIFO — each settle appends in O(1); an out-of-order settle just marks
// the cache dirty and sortedSettled re-sorts it on the next
// order-sensitive read. Callers hold s.mu.
func (s *Server) settle(res *core.JobResult) {
	t := res.Job.Tenant
	if s.inflight[t]--; s.inflight[t] == 0 {
		delete(s.inflight, t)
	}
	if n := len(s.settled); n > 0 && res.Job.ID < s.settled[n-1].Job.ID {
		s.settledDirty = true
	}
	s.settled = append(s.settled, res)
}

// sortedSettled returns the settled cache in job-id (= submission)
// order, re-sorting it first if out-of-order settles dirtied it.
// Aggregates computed from it are then bit-deterministic regardless of
// map iteration or settle order. Callers hold s.mu.
func (s *Server) sortedSettled() []*core.JobResult {
	if s.settledDirty {
		sort.Slice(s.settled, func(i, j int) bool { return s.settled[i].Job.ID < s.settled[j].Job.ID })
		s.settledDirty = false
	}
	return s.settled
}

// Drain stops accepting submissions, runs every accepted job to
// completion, and returns the final results in submission order.
// Status and stats endpoints keep answering afterwards (503 only for
// new submissions).
func (s *Server) Drain() ([]*core.JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errors.New("service: already drained")
	}
	s.draining = true
	return s.f.Drain()
}

// SubmitRequest is POST /v1/jobs' body. Exactly one of Circuit and
// QASM must be set.
type SubmitRequest struct {
	// Tenant identifies the submitting tenant; Priority is its
	// fair-share weight (non-positive means 1).
	Tenant   int `json:"tenant"`
	Priority int `json:"priority,omitempty"`
	// Circuit names a benchmark from the qlib generator library
	// (e.g. "qft_n63"); QASM is an inline OpenQASM 2.0 program.
	Circuit string `json:"circuit,omitempty"`
	QASM    string `json:"qasm,omitempty"`
	// DeadlineSlack sets the job's SLO deadline to
	// arrival + circuit depth × slack CX units; 0 means no deadline.
	DeadlineSlack float64 `json:"deadline_slack,omitempty"`
}

// JobResponse reports one job over the wire.
type JobResponse struct {
	ID         int     `json:"id"`
	Tenant     int     `json:"tenant"`
	Status     string  `json:"status"`
	Arrival    float64 `json:"arrival"`
	Deadline   float64 `json:"deadline,omitempty"`
	VirtualNow float64 `json:"virtual_now"`
	// Result fields, populated once the job settles.
	PlacedAt    float64 `json:"placed_at,omitempty"`
	Finished    float64 `json:"finished,omitempty"`
	JCT         float64 `json:"jct,omitempty"`
	WaitTime    float64 `json:"wait_time,omitempty"`
	RemoteGates int     `json:"remote_gates,omitempty"`
	MetDeadline *bool   `json:"met_deadline,omitempty"`
}

// ErrorResponse is the JSON error envelope; 429s carry the retry hint.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header: how long until
	// the tenant's token bucket refills (rate limit) or a polling
	// interval to retry on (quota).
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var resp JobResponse
	req, circ, err := parseSubmit(w, r)
	if err != nil {
		reply(w, 0, nil, err)
		return
	}
	err = s.locked(func(now time.Time) error {
		if s.draining {
			return errorf(http.StatusConflict, "server is drained; submissions are closed")
		}
		// Load shedding before any per-tenant accounting: a shed
		// submission is never WAL-logged and must not debit the tenant's
		// token bucket.
		if wm := s.cfg.ShedBacklog; wm > 0 {
			if backlog := s.backlog(); backlog >= wm {
				s.shed[req.Tenant]++
				return &apiError{http.StatusServiceUnavailable,
					fmt.Sprintf("backlog %d at or above shedding watermark %d", backlog, wm), s.shedRetryAfter()}
			}
		}
		// Quota before rate: a submission the quota refuses must not debit
		// the tenant's token bucket, or retry-polling for a free slot would
		// exhaust the rate budget the eventual accepted submission needs.
		if q := s.cfg.MaxInFlight; q > 0 && s.inflight[req.Tenant] >= q {
			s.rejQuota[req.Tenant]++
			return &apiError{http.StatusTooManyRequests,
				fmt.Sprintf("tenant %d has %d jobs in flight (quota %d)", req.Tenant, s.inflight[req.Tenant], q), 1}
		}
		if ok, wait := s.allow(req.Tenant, now); !ok {
			s.rejRate[req.Tenant]++
			return &apiError{http.StatusTooManyRequests, fmt.Sprintf("tenant %d over submission rate", req.Tenant), wait}
		}

		arrival := s.f.Now()
		rec := wal.Record{
			Type: wal.TypeJob, V: arrival,
			Tenant: req.Tenant, Priority: req.Priority,
			Circuit: req.Circuit, QASM: req.QASM,
		}
		if req.DeadlineSlack > 0 {
			rec.Deadline = arrival + float64(float64(circ.Depth())*req.DeadlineSlack)
		}
		// Durability before admission: every job a client saw accepted
		// survives a crash.
		if err := s.logDurable(rec); err != nil {
			return err
		}
		id, err := s.accept(rec, circ)
		if errors.Is(err, core.ErrDrained) {
			return errorf(http.StatusConflict, "%v", err)
		}
		if err != nil {
			return err
		}
		resp = s.jobResponse(id)
		return nil
	})
	reply(w, http.StatusAccepted, &resp, err)
}

// parseSubmit decodes and validates a submission before it meets any
// server state: the body, its circuit, and its deadline, which must be
// finite (JSON carries no infinity, to the WAL or back to the client).
func parseSubmit(w http.ResponseWriter, r *http.Request) (req SubmitRequest, circ *circuit.Circuit, err error) {
	if err = decodeBody(w, r, &req); err != nil {
		return req, nil, err
	}
	if circ, err = buildCircuit(req); err != nil {
		return req, nil, errorf(http.StatusBadRequest, "%v", err)
	}
	if math.IsInf(float64(circ.Depth())*req.DeadlineSlack, 1) {
		return req, nil, errorf(http.StatusBadRequest,
			"deadline_slack %g times circuit depth %d overflows the deadline", req.DeadlineSlack, circ.Depth())
	}
	return req, circ, nil
}

// logDurable appends rec to the WAL, if there is one, and fsyncs it. A
// WAL failure refuses the operation: accepting it un-logged would break
// the replay guarantee.
func (s *Server) logDurable(rec wal.Record) error {
	w := s.cfg.WAL
	if w == nil {
		return nil
	}
	if err := w.Append(rec); err != nil {
		return err
	}
	return w.Sync()
}

// accept admits one logged submission. It is the one path for both
// the live submit (after shedding, quota, rate and the WAL append) and
// Replay's job records, so a recovered daemon takes every decision the
// live one took: the degrade rule at the current backlog, the job built
// from the record, the federation submit, and the bookkeeping — the
// counter, the tenant's in-flight count and the "submit" event. Only
// logged submissions reach here, so only they can flip the admission
// mode. Returns the assigned job id. Callers hold s.mu.
func (s *Server) accept(rec wal.Record, circ *circuit.Circuit) (int, error) {
	s.applyDegrade()
	// ID -1 lets the federation assign the next shard-tagged id
	// (id mod shards = the routed shard; dense 0,1,2,… on one shard).
	job := &core.Job{
		ID:       -1,
		Circuit:  circ,
		Arrival:  rec.V,
		Tenant:   rec.Tenant,
		Priority: rec.Priority,
		Deadline: rec.Deadline,
	}
	if err := s.f.Submit(job); err != nil {
		return 0, err
	}
	s.submitted++
	s.inflight[job.Tenant]++
	shard, _ := s.f.ShardOf(job.ID)
	s.events.append(Event{
		Type: EventSubmit, Job: job.ID, Tenant: job.Tenant,
		Shard: shard, VTime: job.Arrival,
	})
	return job.ID, nil
}

// FaultResponse acknowledges an accepted fault injection.
type FaultResponse struct {
	Kind       string  `json:"kind"`
	Shard      int     `json:"shard"`
	From       float64 `json:"from"`
	VirtualNow float64 `json:"virtual_now"`
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	var e fault.Event
	var resp FaultResponse
	err := decodeBody(w, r, &e)
	if err == nil {
		// The federation validates and schedules the event atomically (an
		// error means nothing changed), and only an accepted injection is
		// logged, fsynced before the 202 like an accepted submission, so a
		// restarted daemon re-injects it at the same position in the
		// replayed operation stream.
		err = s.locked(func(time.Time) error {
			if s.draining {
				return errorf(http.StatusConflict, "server is drained; fault injection is closed")
			}
			if err := s.f.Inject(e); err != nil {
				return errorf(http.StatusBadRequest, "%v", err)
			}
			if err := s.logDurable(wal.Record{Type: wal.TypeFault, V: e.From, Fault: &e}); err != nil {
				return err
			}
			resp = FaultResponse{Kind: e.Kind, Shard: e.Shard, From: e.From, VirtualNow: s.f.Now()}
			return nil
		})
	}
	reply(w, http.StatusAccepted, &resp, err)
}

// backlog is the federation-wide count of jobs waiting for service
// (pending arrivals + admission queue), the quantity both load-shedding
// watermarks compare against. Callers hold s.mu and have advanced.
func (s *Server) backlog() int {
	snap := s.f.Snapshot()
	return snap.Pending + snap.Queued
}

// applyDegrade switches admission WFQ→FIFO while the backlog is at or
// above the soft watermark and back below it; accept evaluates it once
// per accepted submission. Mode changes go through the federation so
// every shard flips together; WFQ virtual clocks survive the round
// trip. Callers hold s.mu.
func (s *Server) applyDegrade() {
	wm := s.cfg.DegradeBacklog
	if wm <= 0 || s.baseMode == core.FIFOMode {
		return
	}
	if degrade := s.backlog() >= wm; degrade != s.degraded {
		mode := s.baseMode
		if degrade {
			mode = core.FIFOMode
		}
		if s.f.SetMode(mode) == nil {
			s.degraded = degrade
		}
	}
}

// shedRetryAfter estimates how long until the backlog could fall below
// the shedding watermark: one EPR round of virtual time, converted to
// wall seconds — a floor on when retrying could possibly succeed.
func (s *Server) shedRetryAfter() float64 {
	round := s.f.EPRAttempt()
	if wait := round / s.cfg.TimeScale; wait > 1 {
		return wait
	}
	return 1
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var resp JobResponse
	id, err := jobID(r)
	if err == nil {
		err = s.locked(func(time.Time) error {
			if err := s.lookup(id); err != nil {
				return err
			}
			resp = s.jobResponse(id)
			return nil
		})
	}
	reply(w, http.StatusOK, &resp, err)
}

// lookup is the 404 for an id the federation has never seen.
func (s *Server) lookup(id int) error {
	if _, status := s.f.Result(id); status == core.StatusUnknown {
		return errorf(http.StatusNotFound, "no job %d", id)
	}
	return nil
}

// jobResponse renders a job's current state; callers are inside locked
// and have verified the id exists.
func (s *Server) jobResponse(id int) JobResponse {
	res, status := s.f.Result(id)
	resp := JobResponse{
		ID:         id,
		Tenant:     res.Job.Tenant,
		Status:     status.String(),
		Arrival:    res.Job.Arrival,
		Deadline:   res.Job.Deadline,
		VirtualNow: s.f.Now(),
	}
	if status == core.StatusCompleted {
		resp.PlacedAt = res.PlacedAt
		resp.Finished = res.Finished
		resp.JCT = res.JCT
		resp.WaitTime = res.WaitTime
		resp.RemoteGates = res.RemoteGates
		if res.Job.Deadline > 0 {
			met := res.Finished <= res.Job.Deadline
			resp.MetDeadline = &met
		}
	}
	return resp
}

// TraceResponse is GET /v1/jobs/{id}/trace: one job's span tree in
// virtual time. Attribution's phases sum to its JCT to within rounding
// for completed jobs (local compute is derived as the remainder at
// settlement). Rounds holds the most recent retained round spans —
// when RoundsDropped > 0 the ring overwrote the oldest
// RoundsDropped of the RoundsTotal recorded.
type TraceResponse struct {
	ID      int     `json:"id"`
	Tenant  int     `json:"tenant"`
	Arrival float64 `json:"arrival"`
	// Finished is the settlement instant; meaningful once Done.
	Finished float64 `json:"finished"`
	Done     bool    `json:"done"`
	Failed   bool    `json:"failed"`

	Attribution trace.Attribution `json:"attribution"`

	// Admit is present once the job has been placed.
	Admit         *trace.AdmitSpan    `json:"admit,omitempty"`
	Compiles      []trace.CompileSpan `json:"compiles,omitempty"`
	Rounds        []trace.RoundSpan   `json:"rounds,omitempty"`
	Suspends      []trace.SuspendSpan `json:"suspends,omitempty"`
	Rehomes       []trace.RehomeSpan  `json:"rehomes,omitempty"`
	Faults        []trace.FaultSpan   `json:"faults,omitempty"`
	RoundsTotal   int                 `json:"rounds_total"`
	RoundsDropped int                 `json:"rounds_dropped"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var resp TraceResponse
	id, err := jobID(r)
	// The recorder is fixed when the federation is built, so asking
	// whether there is one reads no state the lock guards.
	rec := s.f.Trace()
	if err == nil && rec == nil {
		err = errorf(http.StatusNotFound, "tracing is disabled (start the daemon with -trace)")
	}
	if err == nil {
		err = s.locked(func(time.Time) error {
			tr := rec.Get(id)
			if tr == nil {
				return errorf(http.StatusNotFound, "no trace for job %d", id)
			}
			resp = traceResponse(tr)
			return nil
		})
	}
	reply(w, http.StatusOK, &resp, err)
}

// traceResponse renders one trace; callers are inside locked (the
// recorder shares the federation's synchronization).
func traceResponse(tr *trace.JobTrace) TraceResponse {
	resp := TraceResponse{
		ID:            tr.ID,
		Tenant:        tr.Tenant,
		Arrival:       tr.Arrival,
		Finished:      tr.Finished,
		Done:          tr.Done,
		Failed:        tr.Failed,
		Attribution:   tr.Attr,
		Compiles:      tr.Compiles,
		Rounds:        tr.Rounds(nil),
		Suspends:      tr.Suspends,
		Rehomes:       tr.Rehomes,
		Faults:        tr.Faults,
		RoundsTotal:   tr.RoundsTotal,
		RoundsDropped: tr.RoundsDropped,
	}
	if tr.Placed() {
		admit := tr.Admit
		resp.Admit = &admit
	}
	return resp
}

// StatsResponse is GET /v1/stats: the accepted stream's aggregates so
// far. Online covers settled jobs (completed + failed); SLO carries
// deadline attainment and cross-tenant fairness in AggregateSLO's
// shape, with NaN rendered as null.
type StatsResponse struct {
	VirtualNow float64 `json:"virtual_now"`
	Submitted  int     `json:"submitted"`
	Settled    int     `json:"settled"`
	// Rejected counts 429-rejected submissions (rate or quota); they
	// never reach the controller and are absent from every aggregate.
	Rejected int `json:"rejected"`
	// Shed counts 503-shed submissions (backlog over the shedding
	// watermark); like rejections they never reach the controller.
	Shed   int                 `json:"shed"`
	Online metrics.OnlineStats `json:"online"`
	SLO    SLOWire             `json:"slo"`
	// PlanCache reports the compile-once plan caches' hit/miss/eviction
	// counters and occupancy, merged across shards (all zero with
	// "enabled": false when every controller runs uncached).
	PlanCache plan.Stats `json:"plan_cache"`
	// Preemption counts checkpoint preemptions, resumes, and rescued
	// deadlines, summed across shards (all zero with -preempt off).
	Preemption core.PreemptStats `json:"preemption"`
	// Faults counts injected faults by kind and the recovery work they
	// forced — rescues, retries, reroutes, exhausted budgets — summed
	// across shards (all zero with no fault plan and no injections).
	Faults fault.Stats `json:"faults"`
	// Federation reports the routing tier: shard count, discipline,
	// admission-router counters, and the per-shard breakdown. A
	// single-controller server shows one shard with zeroed counters.
	Federation FederationWire `json:"federation"`
	// Attribution is the per-tenant JCT attribution aggregate — the
	// sums over each tenant's settled traces, so every row's phases sum
	// to its JCT to within rounding. Present only while tracing is on.
	Attribution []trace.TenantAttribution `json:"attribution,omitempty"`
}

// FederationWire is /v1/stats' federated view.
type FederationWire struct {
	Shards   int             `json:"shards"`
	Routing  string          `json:"routing"`
	Router   fed.RouterStats `json:"router"`
	PerShard []ShardWire     `json:"per_shard"`
}

// ShardWire is one shard's slice of the federated view: its lifecycle
// counts and its local plan cache, so affinity routing's cache-locality
// payoff is observable per shard.
type ShardWire struct {
	Shard     int               `json:"shard"`
	Snapshot  core.LiveSnapshot `json:"snapshot"`
	PlanCache plan.Stats        `json:"plan_cache"`
}

// federationWire renders the routing tier; callers are inside locked.
func (s *Server) federationWire() FederationWire {
	fw := FederationWire{
		Shards:   s.f.NumShards(),
		Routing:  s.f.Routing().String(),
		Router:   s.f.RouterStats(),
		PerShard: make([]ShardWire, s.f.NumShards()),
	}
	snaps := s.f.ShardSnapshots()
	for i := range fw.PerShard {
		fw.PerShard[i] = ShardWire{
			Shard:     i,
			Snapshot:  snaps[i],
			PlanCache: s.f.Shard(i).PlanCacheStats(),
		}
	}
	return fw
}

// NullableFloat is a float64 that marshals NaN as JSON null (the
// encoder rejects NaN outright) and unmarshals null back to NaN — the
// one place the /v1/stats NaN→null mapping lives. An aggregate is NaN
// whenever its input set is empty: no settled jobs, no
// deadline-carrying jobs, or too few tenants for a fairness index.
type NullableFloat float64

// IsNull reports whether the value marshals as null.
func (f NullableFloat) IsNull() bool { return math.IsNaN(float64(f)) }

// MarshalJSON implements json.Marshaler: NaN → null.
func (f NullableFloat) MarshalJSON() ([]byte, error) {
	if f.IsNull() {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON implements json.Unmarshaler: null → NaN.
func (f *NullableFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = NullableFloat(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}

// SLOWire is metrics.SLOStats on the wire, NaNs as null (NullableFloat).
type SLOWire struct {
	Attainment NullableFloat   `json:"attainment"`
	Fairness   NullableFloat   `json:"fairness"`
	PerTenant  []TenantSLOWire `json:"per_tenant"`
}

// TenantSLOWire is one tenant's SLO slice on the wire.
type TenantSLOWire struct {
	Tenant     int           `json:"tenant"`
	Weight     int           `json:"weight"`
	Completed  int           `json:"completed"`
	Failed     int           `json:"failed"`
	MeanJCT    NullableFloat `json:"mean_jct"`
	P99JCT     NullableFloat `json:"p99_jct"`
	Attainment NullableFloat `json:"attainment"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	err := s.locked(func(time.Time) error {
		settled := s.sortedSettled()
		resp = StatsResponse{
			VirtualNow: s.f.Now(),
			Submitted:  s.submitted,
			Settled:    len(settled),
			Rejected:   total(s.rejRate) + total(s.rejQuota),
			Shed:       total(s.shed),
			Online:     core.OnlineStatsOf(settled),
			SLO:        sloWire(metrics.AggregateSLO(core.Outcomes(settled))),
			PlanCache:  s.f.PlanCacheStats(),
			Preemption: s.f.PreemptStats(),
			Faults:     s.f.FaultStats(),
			Federation: s.federationWire(),
		}
		if rec := s.f.Trace(); rec != nil {
			resp.Attribution = rec.Tenants()
		}
		return nil
	})
	reply(w, http.StatusOK, &resp, err)
}

// total sums a per-tenant counter.
func total(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// ClusterResponse is GET /v1/cluster: the federation's instantaneous
// state under the virtual clock. Snapshot aggregates every shard and
// QPUs concatenates their loads in shard order (QPU ids are
// shard-local); Shards carries each shard cloud's own view.
type ClusterResponse struct {
	VirtualNow float64            `json:"virtual_now"`
	TimeScale  float64            `json:"time_scale"`
	Draining   bool               `json:"draining"`
	Snapshot   core.LiveSnapshot  `json:"snapshot"`
	QPUs       []core.QPULoad     `json:"qpus"`
	Shards     []ShardClusterWire `json:"shards"`
}

// ShardClusterWire is one shard cloud's slice of /v1/cluster.
type ShardClusterWire struct {
	Shard    int               `json:"shard"`
	Snapshot core.LiveSnapshot `json:"snapshot"`
	QPUs     []core.QPULoad    `json:"qpus"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var resp ClusterResponse
	err := s.locked(func(time.Time) error {
		snaps := s.f.ShardSnapshots()
		loads := s.f.QPULoads()
		resp = ClusterResponse{
			VirtualNow: s.f.Now(),
			TimeScale:  s.cfg.TimeScale,
			Draining:   s.draining,
			Snapshot:   s.f.Snapshot(),
			Shards:     make([]ShardClusterWire, s.f.NumShards()),
		}
		for i := range resp.Shards {
			resp.Shards[i] = ShardClusterWire{Shard: i, Snapshot: snaps[i], QPUs: loads[i]}
			resp.QPUs = append(resp.QPUs, loads[i]...)
		}
		return nil
	})
	reply(w, http.StatusOK, &resp, err)
}

// bucket is one tenant's token bucket (tokens = submissions).
type bucket struct {
	tokens float64
	last   time.Time
}

// allow takes one token from the tenant's bucket, reporting how long
// until the next token when empty. Callers hold s.mu.
func (s *Server) allow(tenant int, now time.Time) (bool, float64) {
	if s.cfg.Rate <= 0 {
		return true, 0
	}
	b := s.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: float64(s.cfg.Burst), last: now}
		s.buckets[tenant] = b
	}
	b.tokens += float64(now.Sub(b.last).Seconds() * s.cfg.Rate)
	if max := float64(s.cfg.Burst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, (1 - b.tokens) / s.cfg.Rate
}

// buildCircuit resolves a submission's circuit: a qlib benchmark name
// or an inline OpenQASM 2.0 program, exactly one of the two.
func buildCircuit(req SubmitRequest) (*circuit.Circuit, error) {
	switch {
	case req.Circuit != "" && req.QASM != "":
		return nil, errors.New("set exactly one of circuit and qasm, not both")
	case req.Circuit != "":
		c, err := qlib.Build(req.Circuit)
		if err != nil {
			return nil, fmt.Errorf("unknown circuit %q", req.Circuit)
		}
		return c, nil
	case req.QASM != "":
		c, err := qasm.Parse("inline", req.QASM)
		if err != nil {
			return nil, fmt.Errorf("qasm: %v", err)
		}
		if c.NumQubits() == 0 {
			return nil, errors.New("qasm: empty register")
		}
		return c, nil
	default:
		return nil, errors.New("set one of circuit (qlib name) and qasm (inline program)")
	}
}

func sloWire(s metrics.SLOStats) SLOWire {
	out := SLOWire{
		Attainment: NullableFloat(s.Attainment),
		Fairness:   NullableFloat(s.Fairness),
		PerTenant:  make([]TenantSLOWire, 0, len(s.PerTenant)),
	}
	for _, t := range s.PerTenant {
		out.PerTenant = append(out.PerTenant, TenantSLOWire{
			Tenant:     t.Tenant,
			Weight:     t.Weight,
			Completed:  t.Completed,
			Failed:     t.Failed,
			MeanJCT:    NullableFloat(t.MeanJCT),
			P99JCT:     NullableFloat(t.P99JCT),
			Attainment: NullableFloat(t.Attainment),
		})
	}
	return out
}

// apiError is a route's refusal: the status code, the error envelope's
// text, and the Retry-After hint in seconds (0 for none). Any other
// error a route returns answers 500 with its text.
type apiError struct {
	code       int
	msg        string
	retryAfter float64
}

func (e *apiError) Error() string { return e.msg }

// errorf is an apiError without a retry hint.
func errorf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// jobID parses the {id} path segment.
func jobID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, errorf(http.StatusBadRequest, "job id must be an integer")
	}
	return id, nil
}

// decodeBody decodes a POST body of at most 1 MiB into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return errorf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// reply writes a route's answer: v as the JSON body under code, or,
// when err is set, the error envelope under err's status, with
// Retry-After when the refusal carries a hint. The body is encoded
// before the status goes out, so a value JSON cannot encode (a NaN or
// infinite float) answers 500 with the envelope, not code with an
// empty body.
func reply(w http.ResponseWriter, code int, v any, err error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err == nil {
		err = enc.Encode(v) // writes nothing when it fails
	}
	if err != nil {
		var ae *apiError
		if !errors.As(err, &ae) {
			ae = &apiError{code: http.StatusInternalServerError, msg: err.Error()}
		}
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(ae.retryAfter))))
		}
		code = ae.code
		_ = enc.Encode(ErrorResponse{Error: ae.msg, RetryAfterSeconds: ae.retryAfter})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body.Bytes())
}
