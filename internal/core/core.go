// Package core is CloudQC's multi-tenant controller: it admits quantum
// circuit jobs into the cloud (batch-ordered by the paper's intensity
// metric, Eq. 11, or FIFO), places them with a pluggable placement
// algorithm, and executes all active jobs' remote DAGs concurrently —
// sharing every QPU's communication qubits across tenants each EPR round
// and releasing computing qubits as jobs complete.
//
// The controller is driven by the discrete-event engine in internal/des:
// job arrivals, maturing computing-qubit releases, placement retries, and
// shared EPR rounds are scheduled events, and spans where every active
// job waits on local gate tails are skipped in one clock jump instead of
// being simulated round by round. There is one engine path: a
// LiveController accepts jobs incrementally, and Run is Submit-all plus
// Drain on the same state. Round times come from repeated EPRAttempt
// addition from the instant execution (re)started, so skipping a stall
// never perturbs them; arrivals are admitted on arrival, not on the
// round grid.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/des"
	"cloudqc/internal/epr"
	"cloudqc/internal/fault"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/plan"
	"cloudqc/internal/sched"
	"cloudqc/internal/trace"
)

// Job is one tenant's circuit submission.
type Job struct {
	// ID identifies the job in results; unique within one Run.
	ID int
	// Circuit is the submitted program.
	Circuit *circuit.Circuit
	// Arrival is the submission time (0 for batch mode).
	Arrival float64
	// Tenant identifies the submitting tenant; the zero value is the
	// single default tenant of tenant-oblivious workloads.
	Tenant int
	// Priority is the tenant's scheduling weight: WFQ admission serves
	// tenants in proportion to it, and the tenant-weighted allocation
	// policy splits each round's communication budget by it.
	// Non-positive means 1.
	Priority int
	// Deadline is the job's absolute SLO deadline in CX units; EDF
	// admission orders by it and metrics report attainment against it.
	// Zero or negative means the job carries no deadline.
	Deadline float64
}

// weight resolves the job's scheduling weight (non-positive Priority
// defaults to 1).
func (j *Job) weight() float64 {
	if j.Priority <= 0 {
		return 1
	}
	return float64(j.Priority)
}

// JobResult reports one job's fate.
type JobResult struct {
	Job *Job
	// Failed is set when the job could never be placed (e.g. larger than
	// the whole cloud); the remaining fields are zero.
	Failed bool
	// PlacedAt is when computing qubits were reserved.
	PlacedAt float64
	// Finished is when the last gate (including trailing local gates)
	// completed.
	Finished float64
	// JCT = Finished − Arrival (queueing included), the paper's metric.
	JCT float64
	// WaitTime = PlacedAt − Arrival, the admission wait. A preempted and
	// resumed job reports its first placement here: requeue spans after a
	// preemption count toward JCT but not WaitTime, so the JCT-vs-wait
	// decomposition in OnlineStats keeps meaning "time to first service".
	WaitTime float64
	// RemoteGates is the job's remote DAG size under its placement.
	RemoteGates int
	// Placement is the qubit→QPU assignment used.
	Placement *place.Placement
}

// Intensity computes Eq. 11 for a circuit with the paper's equal λ
// weights: I = #2q/n + n + depth. Both counts are memoized on the
// circuit, so admission reads it off the circuit on every sort.
func Intensity(c *circuit.Circuit) float64 {
	n := float64(c.NumQubits())
	return float64(c.TwoQubitGateCount())/n + n + float64(c.Depth())
}

// Mode selects the job admission order.
type Mode int

const (
	// BatchMode orders waiting jobs by ascending intensity, cheapest
	// first (CloudQC's batch manager).
	BatchMode Mode = iota + 1
	// FIFOMode admits strictly in arrival order (CloudQC-FIFO baseline).
	FIFOMode
	// EDFMode admits waiting jobs earliest-deadline-first: ascending
	// absolute Deadline, jobs without deadlines last, ties by arrival
	// then ID. With all-equal deadlines it reduces to FIFO order.
	EDFMode
	// WFQMode is weighted fair queueing across tenants (start-time fair
	// queueing): each tenant accumulates virtual service — placed
	// intensity divided by its weight — and admission repeatedly takes
	// the cheapest waiting job of the least-served backlogged tenant. A
	// tenant going idle is not credited for the idle span (its virtual
	// service restarts at the global virtual time), so weights bound
	// each tenant's share of admissions without letting a latecomer
	// starve the rest. With a single tenant it reduces to batch
	// (ascending-intensity) order.
	WFQMode
)

// String names the mode as ParseMode spells it.
func (m Mode) String() string {
	switch m {
	case BatchMode:
		return "batch"
	case FIFOMode:
		return "fifo"
	case EDFMode:
		return "edf"
	case WFQMode:
		return "wfq"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode maps a CLI mode name to its admission mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "batch":
		return BatchMode, nil
	case "fifo":
		return FIFOMode, nil
	case "edf":
		return EDFMode, nil
	case "wfq":
		return WFQMode, nil
	default:
		return 0, fmt.Errorf("core: unknown admission mode %q (want batch, fifo, edf, or wfq)", s)
	}
}

// Config assembles a LiveController.
type Config struct {
	// Cloud is the shared QPU cluster. Run mutates its reservations.
	Cloud *cloud.Cloud
	// Placer decides qubit→QPU assignments (default: CloudQC with Model).
	Placer place.Placer
	// Policy divides communication qubits each round (default CloudQC).
	Policy sched.Policy
	// Model is the latency/EPR model (default: Table I, p=0.3).
	Model epr.Model
	// Mode selects batch or FIFO admission (default batch).
	Mode Mode
	// Seed drives EPR sampling and randomized policies.
	Seed int64
	// Recorder, when non-nil, receives one utilization/queue sample per
	// scheduling round.
	Recorder *metrics.Recorder
	// PlanCacheSize bounds the compile-once plan cache that memoizes
	// placement and remote-DAG construction per (circuit fingerprint,
	// cloud shape, free-capacity signature): 0 means
	// plan.DefaultCapacity, negative disables caching. The cache only
	// engages when Placer is deterministic (place.DeterministicPlacer —
	// the CloudQC placers are); cached and uncached runs are
	// bit-identical either way.
	PlanCacheSize int
	// SharedWFQ, when non-nil, makes WFQ admission bill tenants into
	// the given shared virtual-clock space instead of a private
	// per-controller one. The federation layer hands one clock to every
	// shard so weighted fairness extends across shards: a tenant's
	// placements on any shard raise its start tags on all of them. The
	// clock is owned by the caller; a single controller over a fresh
	// shared clock behaves identically to the private default.
	SharedWFQ *WFQClock
	// Preempt selects the preemption policy applied at EPR-round
	// boundaries (default PreemptOff). With PreemptOff the controller is
	// bit-identical to the pre-preemption code path.
	Preempt PreemptPolicy
	// ExportPreempted exports preempted and evicted jobs through
	// TakePreempted instead of re-enqueueing them locally, so the
	// federation layer can re-route a resume to a different shard. Set
	// by fed.New on multi-shard federations. Only a run still taking
	// submissions exports: once draining (Drain, and so all of Run)
	// nobody would collect the export, and victims re-enqueue locally.
	ExportPreempted bool
	// OnTransition, when non-nil, is invoked at every job lifecycle
	// transition, under Run as well as Submit and StepUntil (the service
	// layer derives its SSE streams from these). Fires synchronously
	// inside the scheduling loop: the hook must be fast and must not call
	// back into the controller.
	OnTransition func(Transition)
	// Trace, when non-nil, records virtual-time execution spans and JCT
	// attribution for every job (see internal/trace). All hooks sit
	// behind nil checks, so the nil default is the zero-cost off switch:
	// an untraced run is bit-identical to one on a controller built
	// before tracing existed. A federation hands one shared recorder to
	// every shard so traces survive cross-shard rehoming; the recorder
	// follows the controller's synchronization discipline.
	Trace *trace.Recorder
	// Faults, when non-nil, schedules the plan's QPU-outage and
	// link-degrade events on the run's engine (see internal/fault and
	// fault.go in this package). The plan must be core-tier: shard
	// drains belong to fed.Config.Faults, which splits a full plan with
	// ForShard. Event shard indices are ignored here — the plan is
	// taken to be this controller's own slice. Nil keeps every fault
	// hook dormant: the run is bit-identical to a fault-free controller.
	Faults *fault.Plan
}

// RunStats summarizes a controller's control-loop work so far, for
// benchmarking the event-driven engine.
type RunStats struct {
	// Rounds counts executed scheduling rounds: round ticks on the
	// EPRAttempt grid; skipped stall slots are not counted.
	Rounds int
	// Events counts live discrete events the controller handled
	// (arrivals plus executed ticks; superseded tick closures are not
	// counted).
	Events int
}

// LiveController is CloudQC's multi-tenant controller: one event-driven
// run over the cloud that accepts jobs at any virtual time and advances
// the clock in steps. Run is the batch form of the same run: it submits
// a whole workload up front and drains it.
//
//	lc, _ := core.NewLiveController(cfg)
//	lc.Submit(job)            // at any time, arrival = now
//	lc.StepUntil(t)           // advance virtual time to t
//	lc.Snapshot()             // cluster state, lc.Status(id) per job
//	results, _ := lc.Drain()  // run the backlog dry and stop
//
// Submitting a workload's jobs at their arrival times (Submit before the
// clock passes each arrival) with steps in between reproduces Run's
// up-front submission bit-identically — same rounds, same JCTs, same
// recorder series (see TestLiveControllerMatchesRun). A controller runs
// once: after Drain (or Run, which ends in Drain) every further Submit,
// StepUntil, Drain, or Run fails with ErrDrained.
//
// A LiveController is not safe for concurrent use; the service layer
// (internal/service) serializes access.
type LiveController struct {
	cfg Config
	rng *rand.Rand
	// wfq holds WFQ admission's virtual clocks — per-tenant virtual
	// service (placed intensity / weight) behind a stable tenant→slot
	// table, plus the global virtual time: Config.SharedWFQ when set
	// (federation-owned), else a private clock.
	wfq *WFQClock
	// stats, preempt and faultStats count scheduling work, preemption
	// activity, and fault-injection and recovery activity so far.
	stats      RunStats
	preempt    PreemptStats
	faultStats fault.Stats
	// planCache memoizes compile artifacts (placement, remote DAG) per
	// (circuit fingerprint, free-capacity signature); nil when caching
	// is disabled or the placer is not deterministic.
	planCache *plan.Cache[plan.Key, *compiled]
	// verdicts remembers, under the same keys and snapshots, the
	// plan-cache misses whose placer run was infeasible, so a queued job
	// retried under a capacity state it already failed in skips the
	// placer. It exists exactly when planCache does, with the same
	// bound, and is a cache of its own so a verdict never evicts a plan.
	verdicts *plan.Cache[plan.Key, *place.ErrInfeasible]
	// statePool recycles retired jobs' sched.JobStates so cache-hit
	// admissions reuse per-node arrays instead of allocating fresh ones.
	statePool []*sched.JobState
	// Admission-round scratch, reused so the admit hot path stops
	// allocating: the arrived-jobs list, the free-capacity snapshot, and
	// WFQ ordering's slot-indexed grouping and virtual-clock copies
	// (see wfqOrder).
	arrived     []*Job
	freeScratch []int
	wfqGroups   [][]*Job
	wfqRound    []int
	wfqSvc      []float64
	wfqCursor   []int

	// eng runs the event closures (arrivals, ticks, faults) that share
	// the state below.
	eng            *des.Engine
	results        map[int]*JobResult
	totalComputing int
	// jobs preserves submission order for Results.
	jobs []*Job
	// queue holds arrived jobs awaiting placement. Jobs enter it only
	// when their arrival event fires, so its length is exactly the
	// arrived-but-unplaced count the Recorder samples as Queued.
	queue           []*Job
	pendingArrivals int
	active          []*activeJob
	releases        []release
	budget          []int
	// Per-round scratch, reused across ticks so the hot path stops
	// allocating: the flattened request list, each active job's ready
	// set (inner slices keep their capacity), and the pairs granted to
	// each request by position.
	reqBuf   []sched.Request
	readyBuf [][]int
	grants   []int
	// succ[k] is cfg.Model.RoundSuccess(k) for k up to the largest
	// communication-qubit count at construction, so a round looks the
	// probability up instead of calling math.Pow (see roundSuccess).
	succ []float64
	// nextRound is the next shared EPR round's time. Round times advance
	// by repeated EPRAttempt addition from the instant multi-tenant
	// execution (re)started, and are NaN while no job is active.
	nextRound float64
	// capacityChanged gates admission: set by arrivals and maturing
	// releases, consumed by the next tick.
	capacityChanged bool
	// tickSeq is the engine sequence number of the live tick event. The
	// engine has no cancel, so a superseded tick still fires; onTick runs
	// only the event whose number matches, and 0 (which no event
	// carries) cancels the pending one. tickFn is onTick bound once, so
	// scheduling a tick allocates nothing.
	tickSeq int64
	tickFn  func()
	// tickAt is the scheduled live tick's time (NaN when none).
	tickAt float64
	// maxFinished tracks the latest job completion for the closing
	// recorder sample.
	maxFinished float64
	// strict is Run's contract: queued jobs the placer can never fit on
	// an all-free cloud abort the run with an error. Otherwise they are
	// marked failed and the run goes on — an always-on service must
	// survive one impossible job.
	strict bool
	// status indexes per-job lifecycle states, with settled counters
	// alongside, so status queries and snapshots cost O(1) instead of
	// scanning the full submission history. Maintained via setStatus at
	// every transition point.
	status    map[int]JobStatus
	completed int
	failed    int
	// started latches the first clock advance, which decides the
	// recorder's opening sample.
	started bool
	// draining means no more submissions are coming (Drain, and so all
	// of Run): trailing releases are applied silently at the end instead
	// of waking the controller, and nothing is exported. drained latches
	// once Drain or Evacuate retired the controller. A drained engine
	// can still hold events only after Evacuate (Drain runs it dry), and
	// those stale closures must not resurrect exported jobs, so arrivals
	// and fault transitions check it.
	draining bool
	drained  bool
	err      error
	// Preemption state, empty with PreemptOff configured so the off path
	// carries no behavior change: resume maps a preempted or evicted
	// job's ID to its resume record for the re-admission pass, rescued
	// marks jobs whose queueing triggered a rescue preemption (their
	// on-time finish increments RescuedDeadlines), and exported collects
	// victims awaiting federation re-routing (TakePreempted, Evacuate).
	resume   map[int]PreemptedJob
	rescued  map[int]bool
	exported []PreemptedJob
	// faults is the fault injector's overlay (see fault.go), nil
	// without a plan so the fault-free path carries no behavior change.
	faults *faultState
}

// statePoolCap bounds the JobState pool: enough for any realistic
// concurrent-active set without pinning unbounded per-node arrays.
const statePoolCap = 64

// NewLiveController validates the configuration, applies defaults, and
// returns a controller with the virtual clock at 0 and no jobs.
func NewLiveController(cfg Config) (*LiveController, error) {
	if cfg.Cloud == nil {
		return nil, errors.New("core: Config.Cloud is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.CloudQCPolicy{}
	}
	// Only a fully zero Model means "use the paper's default"; a partial
	// model (some latencies set, EPRAttempt forgotten) is a caller bug
	// that Validate reports rather than silently overwriting the set
	// fields.
	if cfg.Model == (epr.Model{}) {
		cfg.Model = epr.DefaultModel()
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Placer == nil {
		pc := place.DefaultConfig()
		pc.Model = cfg.Model
		cfg.Placer = place.NewCloudQC(pc)
	}
	if cfg.Mode == 0 {
		cfg.Mode = BatchMode
	}
	if cfg.Mode < BatchMode || cfg.Mode > WFQMode {
		return nil, fmt.Errorf("core: unknown admission mode %d", cfg.Mode)
	}
	if cfg.Preempt < PreemptOff || cfg.Preempt > PreemptPriority {
		return nil, fmt.Errorf("core: unknown preemption policy %d", cfg.Preempt)
	}
	if err := validateFaults(&cfg); err != nil {
		return nil, err
	}
	totalComputing, maxComm := 0, 0
	for i := 0; i < cfg.Cloud.NumQPUs(); i++ {
		if cfg.Cloud.QPU(i).Comm < 1 {
			return nil, fmt.Errorf("core: QPU %d has no communication qubits", i)
		}
		totalComputing += cfg.Cloud.QPU(i).Computing
		maxComm = max(maxComm, cfg.Cloud.QPU(i).Comm)
	}
	succ := make([]float64, maxComm+1)
	for k := range succ {
		succ[k] = cfg.Model.RoundSuccess(k)
	}
	lc := &LiveController{
		cfg:            cfg,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		wfq:            cfg.SharedWFQ,
		eng:            des.NewEngine(),
		results:        make(map[int]*JobResult),
		totalComputing: totalComputing,
		budget:         make([]int, cfg.Cloud.NumQPUs()),
		succ:           succ,
		nextRound:      math.NaN(),
		tickAt:         math.NaN(),
		status:         make(map[int]JobStatus),
		resume:         make(map[int]PreemptedJob),
		rescued:        make(map[int]bool),
	}
	lc.tickFn = lc.onTick
	if lc.wfq == nil {
		lc.wfq = NewWFQClock()
	}
	if cfg.PlanCacheSize >= 0 {
		if _, ok := cfg.Placer.(place.DeterministicPlacer); ok {
			lc.planCache = plan.New[plan.Key, *compiled](cfg.PlanCacheSize)
			lc.verdicts = plan.New[plan.Key, *place.ErrInfeasible](cfg.PlanCacheSize)
		}
	}
	// Fault events land on the engine before any arrival, so at a shared
	// instant the fault transition precedes the arrival.
	lc.faultInit()
	return lc, nil
}

// PlanCacheStats reports the compile-once plan cache's cumulative
// hit/miss/eviction counters — surfaced by the service layer on
// GET /v1/stats; the zero Stats (Enabled false) when caching is off.
func (lc *LiveController) PlanCacheStats() plan.Stats {
	if lc.planCache == nil {
		return plan.Stats{}
	}
	return lc.planCache.Stats()
}

// InfeasibleHits counts the plan-cache misses answered by a remembered
// infeasible verdict instead of a placer run. It is kept out of
// PlanCacheStats: every such compile is still a plan-cache miss.
func (lc *LiveController) InfeasibleHits() int64 {
	if lc.verdicts == nil {
		return 0
	}
	return lc.verdicts.Stats().Hits
}

// activeJob is one placed, executing job.
type activeJob struct {
	job       *Job
	state     *sched.JobState
	placement *place.Placement
	placedAt  float64
	// firstPlacedAt is the job's first-ever placement time: equal to
	// placedAt unless the job was preempted and resumed, in which case
	// placedAt is the resume placement and firstPlacedAt the original —
	// the one results report as PlacedAt/WaitTime.
	firstPlacedAt float64
	// tr caches the job's trace so the per-round hook skips the
	// recorder's map; nil whenever tracing is off.
	tr *trace.JobTrace
}

// release is a (time, placement) pair for computing qubits whose job
// finished but whose trailing local work ends later.
type release struct {
	at        float64
	placement *place.Placement
}

// validateJob rejects nil circuits, empty registers (a 0-qubit circuit
// makes Intensity divide by zero, and the NaN would silently corrupt
// the batch sort), non-finite arrivals (a NaN one never compares as
// arrived, an infinite one yields a NaN JCT), NaN deadlines (EDF's
// comparator would no longer be a strict weak order), and IDs already
// present in results, then claims the job's result slot.
func validateJob(j *Job, results map[int]*JobResult) error {
	if j.Circuit == nil {
		return fmt.Errorf("core: job %d has no circuit", j.ID)
	}
	if j.Circuit.NumQubits() == 0 {
		return fmt.Errorf("core: job %d has an empty register", j.ID)
	}
	if math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) {
		return fmt.Errorf("core: job %d has non-finite arrival %v", j.ID, j.Arrival)
	}
	if math.IsNaN(j.Deadline) {
		return fmt.Errorf("core: job %d has a NaN deadline", j.ID)
	}
	if _, dup := results[j.ID]; dup {
		return fmt.Errorf("core: duplicate job ID %d", j.ID)
	}
	results[j.ID] = &JobResult{Job: j}
	return nil
}

// Run executes the jobs to completion and returns their results in
// the order given. The cloud's computing-qubit reservations are restored
// to their initial state before returning.
//
// Run is Submit-all plus Drain, with one difference: a job that can
// never be placed aborts the run with an error instead of being marked
// failed. Like Drain it retires the controller, so a second Run fails
// with ErrDrained. Rounds fall on the EPRAttempt grid from the instant
// execution (re)started; grid slots where no job can attempt EPR
// generation are skipped, not simulated.
func (lc *LiveController) Run(jobs []*Job) ([]*JobResult, error) {
	lc.strict = true
	for _, j := range jobs {
		if err := lc.Submit(j); err != nil {
			return nil, err
		}
	}
	return lc.Drain()
}

// setStatus records a job's lifecycle transition, keeps the settled
// counters current, and fires the OnTransition hook.
func (lc *LiveController) setStatus(id int, s JobStatus) {
	lc.setStatusReason(id, s, ReasonNone)
}

// setStatusReason is setStatus with an explicit transition reason for
// the OnTransition hook (preemption, eviction, and resume paths).
func (lc *LiveController) setStatusReason(id int, s JobStatus, why TransitionReason) {
	old := lc.status[id]
	lc.status[id] = s
	switch s {
	case StatusCompleted:
		lc.completed++
	case StatusFailed:
		lc.failed++
	}
	if fn := lc.cfg.OnTransition; fn != nil {
		fn(Transition{JobID: id, From: old, To: s, At: lc.eng.Now(), Reason: why})
	}
}

// fail settles job id as failed at t: its result is marked Failed, its
// trace closes, and its status moves to StatusFailed — the one failure
// path behind admission (larger than the cloud), the unplaceable
// verdict, and fault eviction.
func (lc *LiveController) fail(id int, t float64) {
	lc.results[id].Failed = true
	if tc := lc.cfg.Trace; tc != nil {
		tc.Fail(id, t)
	}
	lc.setStatus(id, StatusFailed)
}

// arrive is the arrival event: the job joins the admission queue and a
// tick at the current instant places it if capacity allows, so an
// arrival is admitted on arrival rather than at the next release.
func (lc *LiveController) arrive(j *Job) {
	if lc.drained {
		// Evacuated shard: the job was exported for rehoming (Evacuate
		// adjusted pendingArrivals); the stale closure must not
		// resurrect it here.
		return
	}
	lc.pendingArrivals--
	if lc.err != nil {
		return
	}
	lc.stats.Events++
	lc.queue = append(lc.queue, j)
	if tc := lc.cfg.Trace; tc != nil {
		// A resume arrival rehomed from another shard finds its trace
		// already open in the shared recorder; Arrive keeps it.
		tc.Arrive(j.ID, j.Tenant, j.Arrival)
	}
	lc.setStatus(j.ID, StatusQueued)
	lc.capacityChanged = true
	lc.requestTick(lc.eng.Now())
}

// requestTick schedules the controller tick at `at`, superseding any
// later-scheduled tick. Requests at or after the pending tick are
// no-ops: ticks only ever move earlier, never later.
func (lc *LiveController) requestTick(at float64) {
	if !math.IsNaN(lc.tickAt) && lc.tickAt <= at {
		return
	}
	lc.tickAt = at
	lc.tickSeq = lc.eng.Schedule(at, lc.tickFn)
}

// onTick is every tick event's callback. A superseded or cancelled tick
// still fires, but its sequence number is no longer tickSeq, so it only
// advances the clock.
func (lc *LiveController) onTick() {
	if lc.eng.Running() != lc.tickSeq || lc.err != nil {
		return
	}
	lc.tickAt = math.NaN()
	lc.tick()
}

// tick is one controller pass at the current instant: apply matured
// releases, retry admission, sample the recorder, run the shared EPR
// round if one is due, retire finished jobs, and schedule the next tick.
func (lc *LiveController) tick() {
	lc.stats.Events++
	t := lc.eng.Now()

	// Apply matured releases.
	kept := lc.releases[:0]
	for _, r := range lc.releases {
		if r.at <= t {
			r.placement.Release(lc.cfg.Cloud)
			lc.capacityChanged = true
		} else {
			kept = append(kept, r)
		}
	}
	lc.releases = kept
	if lc.faults != nil {
		// Capacity a matured release just returned on a downed QPU goes
		// straight back into the outage hold.
		lc.faultTopUp()
	}

	// Admission: try placing waiting jobs. Admitting onto an idle cloud
	// (re)starts the round clock at this instant.
	if lc.capacityChanged {
		wasIdle := len(lc.active) == 0
		if err := lc.admit(t); err != nil {
			lc.err = err
			return
		}
		lc.capacityChanged = false
		if wasIdle && len(lc.active) > 0 {
			lc.nextRound = t
		}
	}

	if lc.cfg.Recorder != nil {
		lc.cfg.Recorder.Record(metrics.Sample{
			Time:        t,
			Utilization: lc.cfg.Cloud.Utilization(),
			Active:      len(lc.active),
			Queued:      len(lc.queue),
		})
	}

	// One shared EPR round across every active job, when a round is due.
	// Off-grid ticks (an arrival landing between rounds) only admit; the
	// round cadence of already-running jobs is preserved. Requests and
	// ready sets accumulate into reused scratch buffers.
	if !math.IsNaN(lc.nextRound) && t >= lc.nextRound {
		lc.stats.Rounds++
		lc.reqBuf = lc.reqBuf[:0]
		for len(lc.readyBuf) < len(lc.active) {
			lc.readyBuf = append(lc.readyBuf, nil)
		}
		for idx, aj := range lc.active {
			ready := aj.state.AppendReady(lc.readyBuf[idx][:0], t)
			lc.readyBuf[idx] = ready
			base := len(lc.reqBuf)
			lc.reqBuf = aj.state.AppendRequests(lc.reqBuf, idx, ready)
			for i := base; i < len(lc.reqBuf); i++ {
				lc.reqBuf[i].Tenant = aj.job.Tenant
				lc.reqBuf[i].TenantWeight = aj.job.Priority
			}
		}
		var grants []int
		if len(lc.reqBuf) > 0 {
			for i := range lc.budget {
				lc.budget[i] = lc.cfg.Cloud.QPU(i).Comm
			}
			if f := lc.faults; f != nil {
				// A downed QPU generates no EPR pairs for the interval.
				for i := range lc.budget {
					if f.down[i] > 0 {
						lc.budget[i] = 0
					}
				}
			}
			lc.grants = slices.Grow(lc.grants[:0], len(lc.reqBuf))[:len(lc.reqBuf)]
			grants = lc.grants
			sched.AllocateInto(lc.cfg.Policy, lc.reqBuf, lc.budget, grants, lc.rng)
		}
		// reqBuf lists each active job's ready nodes in turn, one request
		// per node, so a running index walks requests and grants in step
		// with them. Every active job is visited, even in a round with no
		// requests: a traced job sees every round tick, so the
		// network-stall accumulator closes each attempt stretch at the
		// round that follows it.
		k := 0
		for idx, aj := range lc.active {
			ready := lc.readyBuf[idx]
			granted, hops := 0, 0
			for _, u := range ready {
				if h := len(lc.reqBuf[k].Path) - 1; h > hops {
					hops = h
				}
				lc.attempt(aj.state, u, grants[k], t)
				granted += grants[k]
				k++
			}
			if aj.tr != nil {
				aj.tr.Round(t, len(ready), len(ready), granted, hops)
			}
		}
		if lc.faults != nil {
			// After the traced Round hooks so a retry-failed job's spans
			// close in recording order; before retirement so a job that
			// completed this round retires instead of failing.
			lc.faultRetryPass(t, grants)
		}
		lc.nextRound = t + lc.cfg.Model.EPRAttempt
	}

	// Retire completed jobs; their execution states return to the pool
	// for later admissions to reuse.
	remaining := lc.active[:0]
	for _, aj := range lc.active {
		if !aj.state.Done() {
			remaining = append(remaining, aj)
			continue
		}
		finished := aj.state.JCT()
		res := lc.results[aj.job.ID]
		res.PlacedAt = aj.firstPlacedAt
		res.Finished = finished
		res.JCT = finished - aj.job.Arrival
		res.WaitTime = aj.firstPlacedAt - aj.job.Arrival
		if aj.tr != nil {
			// Before the status transition, so the service's done event
			// already sees the finalized attribution.
			lc.cfg.Trace.Settle(aj.tr, finished, aj.state.MaxFinish())
		}
		lc.releases = append(lc.releases, release{at: finished, placement: aj.placement})
		lc.setStatus(aj.job.ID, StatusCompleted)
		if lc.rescued[aj.job.ID] {
			delete(lc.rescued, aj.job.ID)
			if aj.job.Deadline > 0 && finished <= aj.job.Deadline {
				lc.preempt.RescuedDeadlines++
			}
		}
		if finished > lc.maxFinished {
			lc.maxFinished = finished
		}
		lc.releaseJobState(aj.state)
		aj.state = nil
	}
	lc.active = remaining

	lc.maybePreempt(t)
	lc.scheduleNext(t)
}

// scheduleNext decides when the controller must wake again after a tick
// at time t. With active jobs it is the next round that can make
// progress: rounds advance on the EPRAttempt grid, and grid slots where
// no job has a ready node and no release matures are skipped in one
// jump. With an idle cloud it is the next release (arrival events wake
// the controller on their own); no wake source left with jobs still
// queued means they can never be placed.
func (lc *LiveController) scheduleNext(t float64) {
	if len(lc.active) == 0 {
		lc.nextRound = math.NaN()
		if len(lc.queue) == 0 && lc.pendingArrivals == 0 && lc.draining {
			return // done: only the final releases remain
		}
		// Wake at the next maturing release even with nothing queued:
		// later arrivals need the freed capacity applied, and the
		// Recorder's sample-and-hold series must see utilization drop at
		// the release, not at the next arrival. Before Drain the
		// controller wakes even with nothing pending at all — more jobs
		// may be submitted at any time.
		next := math.Inf(1)
		for _, r := range lc.releases {
			if r.at > t && r.at < next {
				next = r.at
			}
		}
		if !math.IsInf(next, 1) {
			lc.requestTick(next)
		} else if lc.faults != nil && lc.faults.anyDown() {
			// Queued jobs may be waiting on capacity an outage is
			// holding; the pending qpuUp event wakes the controller and
			// retries admission before any unplaceable verdict.
			return
		} else if len(lc.queue) > 0 && lc.pendingArrivals == 0 && math.IsNaN(lc.tickAt) {
			// The tickAt guard defers the verdict while a same-instant
			// re-admission tick is pending (requested when jobs left the
			// cloud mid-tick, as the fault retry pass does): the queue may
			// hold jobs that freed capacity just made placeable.
			// Nothing active, nothing maturing, nothing still to arrive:
			// the queued jobs can never be placed. Run (strict) aborts;
			// otherwise the controller fails the jobs and keeps serving.
			if lc.strict {
				lc.err = fmt.Errorf("core: %d jobs unplaceable with all resources free", len(lc.queue))
				return
			}
			for _, j := range lc.queue {
				lc.fail(j.ID, t)
			}
			lc.queue = lc.queue[:0]
		}
		return
	}

	// Earliest instant any active job can attempt EPR generation; a
	// maturing release also matters (placement retries, utilization
	// samples), processed on the round grid. No answer is earlier than
	// t, so the scan stops at the first job that can attempt at t.
	wake := math.Inf(1)
	for _, aj := range lc.active {
		if ne, ok := aj.state.NextEnableTime(t); ok && ne < wake {
			wake = ne
			if wake == t {
				break
			}
		}
	}
	if math.IsInf(wake, 1) {
		// Unreachable: an unfinished job always has a runnable node. Keep
		// the round cadence rather than spinning the skip loop forever.
		wake = t
	}
	for _, r := range lc.releases {
		if r.at > t && r.at < wake {
			wake = r.at
		}
	}
	// Advance to the first round slot covering wake by repeated
	// EPRAttempt addition — the float sequence a round-per-slot clock
	// would walk, so skipping stalls cannot perturb round times (and
	// with them EPR sampling) by even one ulp.
	next := lc.nextRound
	for next < wake {
		next += lc.cfg.Model.EPRAttempt
	}
	lc.nextRound = next
	lc.requestTick(next)
}

// admit tries to place every queued job that has arrived by t, in the
// configured admission order (batch intensity, FIFO, EDF, or WFQ),
// moving placed jobs onto the active list. Jobs larger than the whole
// cloud are marked failed.
func (lc *LiveController) admit(t float64) error {
	// Partition in place: not-yet-arrived jobs compact into queue's
	// prefix, arrived ones move to a controller-owned scratch list.
	// Bounced jobs are appended back onto the prefix — the combined
	// length never exceeds the original queue, so the hot path
	// reallocates nothing once the scratch warms up.
	arrived := lc.arrived[:0]
	waiting := lc.queue[:0]
	for _, j := range lc.queue {
		if j.Arrival <= t {
			arrived = append(arrived, j)
		} else {
			waiting = append(waiting, j)
		}
	}
	lc.orderArrived(arrived)
	for _, j := range arrived {
		if j.Circuit.NumQubits() > lc.totalComputing {
			lc.fail(j.ID, t)
			continue
		}
		pl, dag, prio, cacheHit, err := lc.compile(j)
		if err != nil {
			var infeasible *place.ErrInfeasible
			if errors.As(err, &infeasible) {
				waiting = append(waiting, j) // retry after a release
				continue
			}
			// Keep the state held so far: callers release the active
			// placements on this path so the cloud is not leaked.
			lc.arrived = arrived[:0]
			lc.queue = waiting
			return fmt.Errorf("core: placing job %d: %w", j.ID, err)
		}
		if err := pl.Reserve(lc.cfg.Cloud); err != nil {
			waiting = append(waiting, j)
			continue
		}
		lc.startJob(j, pl, dag, prio, cacheHit, t)
	}
	lc.arrived = arrived[:0]
	// Preserve arrival order among the still-waiting arrived jobs by
	// re-sorting the combined waiting list on (Arrival, ID).
	slices.SortStableFunc(waiting, compareArrival)
	lc.queue = waiting
	return nil
}

// startJob moves a queued job whose placement pl is already reserved
// onto the active list at t: the one start path behind admission and
// preemption's commit step. A preempted job re-entering admission
// resumes instead of restarting: its checkpoint replays onto the fresh
// placement, it keeps its original first-placement timestamp, and its
// WFQ virtual-clock charge from the first placement stands (resuming is
// not new service, so the tenant is not billed twice).
func (lc *LiveController) startJob(j *Job, pl *place.Placement, dag *sched.RemoteDAG, prio []int, cacheHit bool, t float64) {
	pj, resumed := lc.resume[j.ID]
	var wfqStart float64
	wfqBilled := false
	if lc.cfg.Mode == WFQMode && !resumed {
		// Bill only what was actually served: jobs bounced back to
		// waiting must not inflate their tenant's virtual service.
		wfqStart = lc.chargeWFQ(j)
		wfqBilled = true
	}
	state := lc.takeJobState(dag, prio, t)
	first := t
	if resumed {
		state.ApplyCheckpoint(pj.cp, t)
		first = pj.firstPlacedAt
		delete(lc.resume, j.ID)
		lc.preempt.Resumes++
	}
	aj := &activeJob{job: j, state: state, placement: pl, placedAt: t, firstPlacedAt: first}
	if tc := lc.cfg.Trace; tc != nil {
		if tr := tc.Get(j.ID); tr != nil {
			tr.Compiled(t, cacheHit, resumed)
			tr.Place(t, lc.cfg.Mode.String(), wfqStart, wfqBilled, resumed)
			aj.tr = tr
		}
	}
	lc.active = append(lc.active, aj)
	lc.results[j.ID].RemoteGates = dag.Len()
	lc.results[j.ID].Placement = pl
	if resumed {
		lc.setStatusReason(j.ID, StatusRunning, ReasonResumed)
	} else {
		lc.setStatus(j.ID, StatusRunning)
	}
}

// compile resolves a job's placement and remote DAG against the cloud's
// current free-capacity state: a plan-cache hit returns the memoized
// assignment, DAG skeleton, and priorities; a miss (or disabled cache)
// runs the full placer pipeline and, on success, caches the artifacts
// under the exact free snapshot the placer saw. Because the cached
// placement was computed under an identical snapshot by a deterministic
// placer, a hit is bit-identical to what the cold path would produce —
// and necessarily still fits the QPUs it touches. By the same argument
// a miss whose key and snapshot already failed to place fails again, so
// it returns the remembered *place.ErrInfeasible without running the
// placer. The hit flag reports which path served the compile, for trace
// spans.
func (lc *LiveController) compile(j *Job) (*place.Placement, *sched.RemoteDAG, []int, bool, error) {
	cl := lc.cfg.Cloud
	if lc.planCache == nil {
		pl, err := lc.cfg.Placer.Place(cl, j.Circuit)
		if err != nil {
			return nil, nil, nil, false, err
		}
		dag := sched.BuildRemoteDAG(j.Circuit, cl, pl.QubitToQPU, lc.cfg.Model.Latency)
		return pl, dag, nil, false, nil
	}
	free := lc.freeScratch[:0]
	for i, n := 0, cl.NumQPUs(); i < n; i++ {
		free = append(free, cl.FreeComputing(i))
	}
	lc.freeScratch = free
	key := plan.Key{
		Circuit: j.Circuit.Fingerprint(),
		Cloud:   cl.Signature(),
		Free:    cloud.FreeSignature(free),
	}
	if e, ok := lc.planCache.Lookup(key, free); ok {
		return &place.Placement{Circuit: j.Circuit, QubitToQPU: e.assign}, e.dag, e.prio, true, nil
	}
	if v, ok := lc.verdicts.Lookup(key, free); ok {
		// The fingerprint ignores names: report this job's circuit.
		inf := *v
		inf.Circuit = j.Circuit.Name
		return nil, nil, nil, false, &inf
	}
	pl, err := lc.cfg.Placer.Place(cl, j.Circuit)
	if err != nil {
		var inf *place.ErrInfeasible
		if errors.As(err, &inf) {
			lc.verdicts.Insert(key, free, inf)
		}
		return nil, nil, nil, false, err
	}
	dag := sched.BuildRemoteDAG(j.Circuit, cl, pl.QubitToQPU, lc.cfg.Model.Latency)
	prio := dag.Priorities()
	lc.planCache.Insert(key, free, &compiled{assign: pl.QubitToQPU, dag: dag, prio: prio})
	return pl, dag, prio, false, nil
}

// compiled is one plan-cache entry. All fields are shared, read-only:
// concurrent jobs admitted from the same entry alias the same
// assignment slice, DAG skeleton, and priority slice, none of which
// execution mutates (sched.JobState keeps its own per-run arrays).
type compiled struct {
	// assign maps each qubit to its QPU: Placement.QubitToQPU.
	assign []int
	// dag is the contracted remote DAG skeleton for assign.
	dag *sched.RemoteDAG
	// prio is dag.Priorities(), computed once per template instead of
	// once per job.
	prio []int
}

// takeJobState builds a job's execution state, reusing a pooled
// JobState's per-node arrays when one is available. prio is the cached
// priority slice on plan-cache hits (nil computes it fresh).
func (lc *LiveController) takeJobState(dag *sched.RemoteDAG, prio []int, start float64) *sched.JobState {
	var s *sched.JobState
	if n := len(lc.statePool); n > 0 {
		s = lc.statePool[n-1]
		lc.statePool[n-1] = nil
		lc.statePool = lc.statePool[:n-1]
	} else {
		s = new(sched.JobState)
	}
	s.Reinit(dag, prio, start)
	return s
}

// releaseJobState returns a retired job's execution state to the pool.
// Callers must not touch s afterwards.
func (lc *LiveController) releaseJobState(s *sched.JobState) {
	if len(lc.statePool) < statePoolCap {
		lc.statePool = append(lc.statePool, s)
	}
}

// orderArrived sorts the arrived-and-waiting jobs into this round's
// admission order for the configured mode; FIFO leaves the queue's
// (arrival, ID) order untouched.
func (lc *LiveController) orderArrived(arrived []*Job) {
	switch lc.cfg.Mode {
	case BatchMode:
		// Ascending intensity: the metric estimates a job's cost (2-qubit
		// density, width, depth), so cheapest-first minimizes mean JCT —
		// the ordering that yields the paper's CDF improvement over FIFO.
		slices.SortStableFunc(arrived, func(a, b *Job) int {
			return compareFloat(Intensity(a.Circuit), Intensity(b.Circuit))
		})
	case EDFMode:
		// Earliest absolute deadline first; deadline-free jobs sort last.
		// The (arrival, ID) tie-break makes all-equal deadlines reduce to
		// FIFO for streams submitted in (arrival, ID) order.
		slices.SortStableFunc(arrived, func(a, b *Job) int {
			if c := compareFloat(deadlineOf(a), deadlineOf(b)); c != 0 {
				return c
			}
			return compareArrival(a, b)
		})
	case WFQMode:
		lc.wfqOrder(arrived)
	}
}

// compareFloat orders a and b by the < operator: unlike cmp.Compare,
// which sorts NaN first, it reports NaN equal to everything, so each
// admission comparator keeps plain < semantics.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// compareArrival orders jobs by (Arrival, ID): submission order.
func compareArrival(a, b *Job) int {
	if c := compareFloat(a.Arrival, b.Arrival); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// deadlineOf treats unset deadlines as infinitely late for EDF ordering.
func deadlineOf(j *Job) float64 {
	if j.Deadline <= 0 {
		return math.Inf(1)
	}
	return j.Deadline
}

// wfqOrder arranges arrived into weighted fair admission order by
// simulating start-time fair queueing on scratch copies of the virtual
// clocks: each tenant's jobs queue in ascending (intensity, arrival,
// ID) order, and the next slot goes to the head job with the smallest
// start tag max(service[tenant], vtime) — ties to the smaller finish
// tag start + intensity/weight, then the smaller tenant id. The scratch
// clocks are charged as if every job were placed so one tenant's many
// cheap jobs cannot all outrank a rival's single expensive one; the
// real clocks advance only when a job actually reserves capacity (see
// chargeWFQ), so jobs bounced back to waiting are never billed. With a
// single tenant the order degenerates to ascending intensity — batch
// order.
//
// Every structure here is slot-indexed through the WFQClock's stable
// tenant→slot table: grouping, scratch clocks, and cursors are plain
// slices reused across rounds, so a round costs zero map operations
// and zero allocations once the scratch is warm. (Memory scales with
// the distinct tenants the clock has seen, exactly like the clock
// itself.)
func (lc *LiveController) wfqOrder(arrived []*Job) {
	if len(arrived) < 2 {
		return
	}
	w := lc.wfq
	groups := lc.wfqGroups
	round := lc.wfqRound[:0]
	for _, j := range arrived {
		s := w.slot(j.Tenant)
		for len(groups) <= s {
			groups = append(groups, nil)
		}
		if len(groups[s]) == 0 {
			round = append(round, s)
		}
		groups[s] = append(groups[s], j)
	}
	lc.wfqGroups = groups
	defer func() {
		// Release the grouped job pointers (the [:0] reslice alone would
		// keep them reachable through the backing arrays) and leave every
		// touched group empty for the next round's len==0 "new slot" test.
		for _, s := range round {
			g := groups[s]
			for i := range g {
				g[i] = nil
			}
			groups[s] = g[:0]
		}
		lc.wfqRound = round[:0]
	}()
	// Slots are allocated in first-seen order, not tenant order; sort
	// this round's slots by tenant id so admission ties keep breaking to
	// the smaller tenant id, exactly as the ordering always has.
	slices.SortStableFunc(round, func(a, b int) int { return cmp.Compare(w.ids[a], w.ids[b]) })
	for _, s := range round {
		slices.SortStableFunc(groups[s], compareWFQJob)
	}
	// Scratch clocks sized to the slot table; only this round's slots
	// are (re)initialized and read.
	svc, cursor := lc.wfqSvc, lc.wfqCursor
	for len(svc) < len(w.service) {
		svc = append(svc, 0)
	}
	for len(cursor) < len(w.service) {
		cursor = append(cursor, 0)
	}
	lc.wfqSvc, lc.wfqCursor = svc, cursor
	for _, s := range round {
		svc[s] = w.service[s]
		cursor[s] = 0
	}
	vtime := w.vtime
	for i := range arrived {
		best := -1
		var bestStart, bestFinish float64
		for _, s := range round {
			if cursor[s] >= len(groups[s]) {
				continue
			}
			start := svc[s]
			if start < vtime {
				start = vtime
			}
			if best >= 0 && start > bestStart {
				continue // a later start never wins; skip its finish tag
			}
			h := groups[s][cursor[s]]
			finish := start + Intensity(h.Circuit)/h.weight()
			if best < 0 || start < bestStart || (start == bestStart && finish < bestFinish) {
				best, bestStart, bestFinish = s, start, finish
			}
		}
		arrived[i] = groups[best][cursor[best]]
		cursor[best]++
		svc[best] = bestFinish
		vtime = bestStart
	}
}

// compareWFQJob orders one tenant's queued jobs: ascending intensity,
// then arrival, then ID — the per-tenant queue order start-time fair
// queueing consumes.
func compareWFQJob(a, b *Job) int {
	if c := compareFloat(Intensity(a.Circuit), Intensity(b.Circuit)); c != 0 {
		return c
	}
	return compareArrival(a, b)
}

// chargeWFQ bills a successfully placed job to its tenant's virtual
// service and advances the global virtual time to the job's start tag,
// which it returns (trace spans record it as the admission decision's
// WFQ virtual start). Starting at max(service, vtime) denies credit
// for idle spans: a tenant that submitted nothing for a while competes
// from the current virtual time, not from its stale low service.
func (lc *LiveController) chargeWFQ(j *Job) float64 {
	w := lc.wfq
	s := w.slot(j.Tenant)
	start := w.service[s]
	if start < w.vtime {
		start = w.vtime
	}
	w.service[s] = start + Intensity(j.Circuit)/j.weight()
	w.vtime = start
	return start
}

// Outcomes converts run results into the metrics layer's plain job
// outcomes for SLO aggregation (deadline attainment, cross-tenant
// fairness, per-tenant breakdowns).
func Outcomes(results []*JobResult) []metrics.JobOutcome {
	out := make([]metrics.JobOutcome, 0, len(results))
	for _, r := range results {
		o := metrics.JobOutcome{
			Tenant:   r.Job.Tenant,
			Weight:   r.Job.Priority,
			Failed:   r.Failed,
			Deadline: r.Job.Deadline,
		}
		if !r.Failed {
			o.JCT, o.Finished = r.JCT, r.Finished
		}
		out = append(out, o)
	}
	return out
}
