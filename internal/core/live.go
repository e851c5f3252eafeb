package core

import (
	"errors"
	"fmt"
	"math"

	"cloudqc/internal/fault"
	"cloudqc/internal/metrics"
	"cloudqc/internal/trace"
)

// ErrDrained is returned by Submit, StepUntil, Drain, and Run once a
// controller has been drained and retired. The service layer maps it
// to 409 Conflict; callers can test for it with errors.Is even through
// the federation layer's wrapping.
var ErrDrained = errors.New("core: live controller already drained")

// JobStatus is a submitted job's lifecycle state in a LiveController.
type JobStatus int

const (
	// StatusUnknown means the job ID was never submitted.
	StatusUnknown JobStatus = iota
	// StatusPending means the job is submitted but its arrival time is
	// still in the virtual future.
	StatusPending
	// StatusQueued means the job has arrived and waits for placement.
	StatusQueued
	// StatusRunning means the job holds computing qubits and is
	// executing its remote DAG.
	StatusRunning
	// StatusCompleted means the job finished; its JobResult is final.
	StatusCompleted
	// StatusFailed means the job can never be placed (larger than the
	// cloud, or unplaceable with every resource free).
	StatusFailed
)

// String returns the status's wire name (used verbatim by the service
// layer's JSON API).
func (s JobStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusCompleted:
		return "completed"
	case StatusFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Settled reports whether the status is terminal (completed or failed).
func (s JobStatus) Settled() bool { return s == StatusCompleted || s == StatusFailed }

// LiveSnapshot is one instant of a LiveController's cluster state.
type LiveSnapshot struct {
	// Now is the current virtual time in CX units.
	Now float64
	// Pending, Queued, Active, Completed, and Failed count submitted
	// jobs by lifecycle state; they sum to the total submitted.
	Pending, Queued, Active, Completed, Failed int
	// Utilization is the fraction of computing qubits reserved, with
	// matured-but-unapplied trailing releases already discounted.
	Utilization float64
	// PendingReleases counts placements whose jobs finished but whose
	// computing qubits have not been returned yet.
	PendingReleases int
	// Rounds and Events are the controller's cumulative scheduling work
	// (see RunStats).
	Rounds, Events int
}

// Now returns the current virtual time in CX units.
func (lc *LiveController) Now() float64 { return lc.eng.Now() }

// Submit injects a job into the run. The job arrives at
// max(Job.Arrival, Now()): a future Arrival schedules it ahead of time,
// a zero or past one means "arrives now" (Job.Arrival itself is left
// untouched — JCT accounting charges from the caller's stamp).
// Submissions at the current instant precede any controller tick
// already scheduled there, so a job submitted at time t is
// indistinguishable from one queued up front with Arrival t.
func (lc *LiveController) Submit(j *Job) error { return lc.enqueue(j, nil) }

// SubmitResume injects a preempted job exported by another controller
// (TakePreempted on the preempting shard): the job re-enters admission
// under its original ID and arrival stamp, and its checkpoint replays
// onto whatever placement admission finds here — by construction a
// strict superset of nothing, so execution only moves forward. Like
// Submit, the arrival event fires at max(Job.Arrival, Now()).
func (lc *LiveController) SubmitResume(pj PreemptedJob) error {
	return lc.enqueue(pj.Job, &resumeState{cp: pj.cp, firstPlacedAt: pj.firstPlacedAt})
}

// enqueue validates j, claims its result slot, and schedules its arrival
// event; a non-nil rs makes it a resume-job carrying that checkpoint.
func (lc *LiveController) enqueue(j *Job, rs *resumeState) error {
	if lc.drained {
		return ErrDrained
	}
	if lc.err != nil {
		return lc.err
	}
	if err := validateJob(j, lc.results); err != nil {
		return err
	}
	why := ReasonNone
	if rs != nil {
		lc.resume[j.ID] = rs
		why = ReasonResumed
	}
	at := j.Arrival
	if now := lc.eng.Now(); at < now {
		at = now
	}
	lc.jobs = append(lc.jobs, j)
	lc.setStatusReason(j.ID, StatusPending, why)
	lc.pendingArrivals++
	// Priority scheduling: arrivals precede any controller tick at the
	// same instant.
	lc.eng.SchedulePriority(at, func() { lc.arrive(j) })
	return nil
}

// TakePreempted hands over the jobs preempted since the last call (only
// a controller configured with ExportPreempted accumulates any). The
// controller forgets them completely — result slots, status, and
// submission-order entries are gone, as if the jobs were never
// submitted here — so the federation layer can SubmitResume each one on
// whichever shard its router picks, including this one.
func (lc *LiveController) TakePreempted() []PreemptedJob {
	out := lc.exported
	if len(out) == 0 {
		return nil
	}
	lc.exported = nil
	gone := make(map[int]bool, len(out))
	for _, pj := range out {
		gone[pj.Job.ID] = true
	}
	lc.forget(gone)
	return out
}

// forget drops jobs from the controller entirely — result slots, status,
// and submission-order entries — so Submit/SubmitResume re-validate them
// wherever the federation rehomes them.
func (lc *LiveController) forget(gone map[int]bool) {
	kept := lc.jobs[:0]
	for _, j := range lc.jobs {
		if gone[j.ID] {
			delete(lc.results, j.ID)
			delete(lc.status, j.ID)
		} else {
			kept = append(kept, j)
		}
	}
	clear(lc.jobs[len(kept):])
	lc.jobs = kept
}

// PreemptStats reports the controller's cumulative preemption counters.
func (lc *LiveController) PreemptStats() PreemptStats { return lc.preempt }

// begin latches the first clock advance and emits the recorder's
// opening sample when the horizon starts idle: the idle span before the
// first event (an arrival or a fault) belongs to the recorded horizon,
// which always starts at t=0. target is how far the caller is about to
// advance; a no-op step (nothing scheduled, clock staying at 0) defers
// the decision.
func (lc *LiveController) begin(target float64) {
	if lc.started {
		return
	}
	next, ok := lc.eng.NextAt()
	if !ok && target <= 0 {
		return
	}
	lc.started = true
	if lc.cfg.Recorder != nil && (!ok || next > 0) {
		lc.cfg.Recorder.Record(metrics.Sample{Time: 0, Utilization: lc.cfg.Cloud.Utilization()})
	}
}

// StepUntil advances the virtual clock to t, executing every event
// strictly before t (arrivals, admission ticks, EPR rounds, releases).
// Events at exactly t stay pending so the caller can still Submit jobs
// arriving at t before they run; a clock already past t only replays
// due events. Returns the first execution error, which is sticky. A
// NaN t is rejected before anything runs.
func (lc *LiveController) StepUntil(t float64) error {
	if math.IsNaN(t) {
		return errors.New("core: StepUntil at NaN")
	}
	if lc.drained {
		return ErrDrained
	}
	if lc.err != nil {
		return lc.err
	}
	if now := lc.eng.Now(); t < now {
		t = now
	}
	lc.begin(t)
	lc.eng.RunBefore(t)
	return lc.err
}

// Drain runs every submitted job to completion, returns the computing
// qubits of trailing releases, emits the recorder's closing sample, and
// retires the controller: further Submit/StepUntil/Drain calls fail.
// Results are returned in submission order.
func (lc *LiveController) Drain() ([]*JobResult, error) {
	if lc.drained {
		return nil, ErrDrained
	}
	lc.begin(math.Inf(1))
	// No more submissions are coming: stop waking at trailing releases
	// (the sweep below applies them silently), and cancel an
	// already-pending idle wake — when the system is idle with nothing
	// queued or still arriving, the only tick that can be scheduled is
	// such a wake.
	lc.draining = true
	if len(lc.active) == 0 && len(lc.queue) == 0 && lc.pendingArrivals == 0 &&
		!math.IsNaN(lc.tickAt) {
		lc.tickSeq = 0
		lc.tickAt = math.NaN()
	}
	lc.eng.Run()
	lc.drained = true
	// Return every reservation still held. On success that is only the
	// trailing releases: nothing stays active once the engine runs dry,
	// and outage holds were returned by their qpuUp events. A poisoned
	// run must not leak reservations on the shared cloud either.
	lc.releaseAll()
	if lc.err != nil {
		return nil, lc.err
	}
	if lc.cfg.Recorder != nil && len(lc.jobs) > 0 {
		// Closing sample: thinned recorders would otherwise drop the
		// end-of-run state and under-cover the horizon (see
		// metrics.Recorder.Flush).
		end := lc.eng.Now()
		if lc.maxFinished > end {
			end = lc.maxFinished
		}
		lc.cfg.Recorder.Flush(metrics.Sample{Time: end, Utilization: lc.cfg.Cloud.Utilization()})
	}
	return lc.Results(), nil
}

// Status reports a submitted job's lifecycle state in O(1): the status
// index is maintained at every transition (submit, arrival, placement,
// retirement, failure).
func (lc *LiveController) Status(id int) JobStatus {
	return lc.status[id] // zero value = StatusUnknown for never-submitted ids
}

// Result returns a job's result slot and status. The result is only
// final once the status is settled; callers must not mutate it.
func (lc *LiveController) Result(id int) (*JobResult, JobStatus) {
	res, ok := lc.results[id]
	if !ok {
		return nil, StatusUnknown
	}
	return res, lc.Status(id)
}

// Results returns every submitted job's result slot in submission
// order; entries for unsettled jobs are partial (see Result).
func (lc *LiveController) Results() []*JobResult {
	out := make([]*JobResult, 0, len(lc.jobs))
	for _, j := range lc.jobs {
		out = append(out, lc.results[j.ID])
	}
	return out
}

// RunStats reports the cumulative scheduling-round and event counts of
// the live run so far.
func (lc *LiveController) RunStats() RunStats { return lc.stats }

// Trace returns the configured span recorder (nil when tracing is
// off).
func (lc *LiveController) Trace() *trace.Recorder { return lc.cfg.Trace }

// Snapshot summarizes the cluster's current state.
func (lc *LiveController) Snapshot() LiveSnapshot {
	t := lc.eng.Now()
	s := LiveSnapshot{
		Now:       t,
		Pending:   lc.pendingArrivals,
		Queued:    len(lc.queue),
		Active:    len(lc.active),
		Completed: lc.completed,
		Failed:    lc.failed,
		Rounds:    lc.stats.Rounds,
		Events:    lc.stats.Events,
	}
	s.Utilization = lc.cfg.Cloud.Utilization()
	matured := 0
	for _, r := range lc.releases {
		s.PendingReleases++
		if r.at <= t {
			matured += len(r.placement.QubitToQPU)
		}
	}
	if matured > 0 && lc.totalComputing > 0 {
		s.Utilization -= float64(matured) / float64(lc.totalComputing)
		if s.Utilization < 0 {
			s.Utilization = 0 // float dust from the discount
		}
	}
	return s
}

// QPULoad is one QPU's capacity and current reservation.
type QPULoad struct {
	ID              int
	Computing, Comm int
	UsedComputing   int
}

// QPULoads reports per-QPU computing reservations (communication qubits
// are claimed and returned within each EPR round, so only their
// capacity is meaningful between rounds). Matured trailing releases are
// discounted exactly like Snapshot's Utilization, so summing the loads
// always agrees with the snapshot in the same view.
func (lc *LiveController) QPULoads() []QPULoad {
	cl := lc.cfg.Cloud
	out := make([]QPULoad, cl.NumQPUs())
	for i := range out {
		q := cl.QPU(i)
		out[i] = QPULoad{ID: i, Computing: q.Computing, Comm: q.Comm, UsedComputing: q.UsedComputing()}
	}
	t := lc.eng.Now()
	for _, r := range lc.releases {
		if r.at > t {
			continue
		}
		for qpu, n := range r.placement.QubitsPerQPU() {
			out[qpu].UsedComputing -= n
		}
	}
	return out
}

// EPRAttempt returns the model's EPR-attempt round length in CX units —
// the granularity the service's virtual-time pacer maps wall time onto.
func (lc *LiveController) EPRAttempt() float64 { return lc.cfg.Model.EPRAttempt }

// TotalComputing returns the cloud's total computing-qubit capacity —
// the ceiling a federation router checks before offering a shard a
// circuit it could never fit.
func (lc *LiveController) TotalComputing() int { return lc.totalComputing }

// FaultStats reports the controller's cumulative fault-injection and
// recovery counters (the zero Stats without a plan or injections).
func (lc *LiveController) FaultStats() fault.Stats { return lc.faultStats }

// InjectFault schedules one fault event live, at max(e.From, Now()) —
// the admin POST /v1/faults path. Interval faults already over after
// the clamp are rejected, as are shard drains (fed.Inject handles
// those) and events out of the cloud's range.
func (lc *LiveController) InjectFault(e fault.Event) error {
	if lc.drained {
		return ErrDrained
	}
	if lc.err != nil {
		return lc.err
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if err := validateFaultEvent(&lc.cfg, e); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if now := lc.eng.Now(); e.From < now {
		e.From = now
		if e.To <= e.From {
			return fmt.Errorf("core: fault interval ends at %g, already past virtual time %g", e.To, now)
		}
	}
	lc.faultEnsure(&fault.Plan{})
	lc.scheduleFault(e)
	return nil
}

// Evacuate checkpoints every unsettled job off the controller and
// halts it — the core half of a federation shard drain. Active jobs
// checkpoint like an eviction; queued and pending jobs move as-is
// (preempted ones carry their existing checkpoints); already-exported
// preemptions ride along. Settled results stay readable. The cloud's
// reservations, trailing releases, and outage holds are all returned,
// so the drained shard ends with zero resident jobs and a fully free
// cloud. After Evacuate the controller is drained: stale engine events
// are inert and every mutating call fails with ErrDrained.
func (lc *LiveController) Evacuate() (resumes []PreemptedJob, waiting []*Job) {
	t := lc.eng.Now()
	tc := lc.cfg.Trace
	active := lc.active
	lc.releaseAll()
	for _, aj := range active {
		cp := aj.state.Checkpoint()
		lc.releaseJobState(aj.state)
		aj.state = nil
		if aj.tr != nil {
			aj.tr.Fault(t, fault.KindShardDrain)
			aj.tr.Preempt(t)
		}
		resumes = append(resumes, PreemptedJob{Job: aj.job, cp: cp, firstPlacedAt: aj.firstPlacedAt})
	}
	collect := func(j *Job) {
		if tc != nil {
			if tr := tc.Get(j.ID); tr != nil {
				tr.Fault(t, fault.KindShardDrain)
			}
		}
		if rs := lc.resume[j.ID]; rs != nil {
			delete(lc.resume, j.ID)
			resumes = append(resumes, PreemptedJob{Job: j, cp: rs.cp, firstPlacedAt: rs.firstPlacedAt})
		} else {
			waiting = append(waiting, j)
		}
	}
	for _, j := range lc.queue {
		collect(j)
	}
	lc.queue = nil
	for _, j := range lc.jobs {
		if lc.status[j.ID] == StatusPending {
			lc.pendingArrivals--
			collect(j)
		}
	}
	resumes = append(resumes, lc.exported...)
	lc.exported = nil
	gone := make(map[int]bool, len(resumes)+len(waiting))
	for _, pj := range resumes {
		gone[pj.Job.ID] = true
	}
	for _, j := range waiting {
		gone[j.ID] = true
	}
	lc.forget(gone)
	lc.halted = true
	lc.drained = true
	return resumes, waiting
}

// OnlineStatsOf aggregates a result set's completed-job JCTs and waits,
// failed count, and last-completion makespan into OnlineStats — the
// summary the service's /v1/stats and the daemon's drain report share.
func OnlineStatsOf(results []*JobResult) metrics.OnlineStats {
	var jcts, waits []float64
	failed := 0
	makespan := 0.0
	for _, r := range results {
		if r.Failed {
			failed++
			continue
		}
		jcts = append(jcts, r.JCT)
		waits = append(waits, r.WaitTime)
		if r.Finished > makespan {
			makespan = r.Finished
		}
	}
	return metrics.AggregateOnline(jcts, waits, failed, makespan)
}
