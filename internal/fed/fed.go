// Package fed is CloudQC's federated multi-cloud controller tier: a
// Federation owns N controller shards — each a self-contained
// core.LiveController over its own cloud (a separate provider region,
// or a partition of one topology via PartitionClouds) with its own RNG
// stream and plan cache — behind a global admission router. It is the
// one way a live cloud is built for serving: a single cloud is a
// 1-shard federation.
//
// The router places each job by tenant+fingerprint affinity: repeated
// templates from one tenant land on the shard whose plan cache already
// holds their compile artifacts, turning cold placements into ~µs
// cache hits, with load-based spillover to the least-loaded shard when
// the affinity shard's backlog runs too deep (see router.go). Weighted
// fairness extends across shards by handing every shard the same
// core.WFQClock: a tenant's placements anywhere raise its WFQ start
// tags everywhere, so cross-shard weighted shares hold federation-wide.
//
// The differential guarantee mirrors the repo's discipline: a 1-shard
// Federation is bit-identical to a bare LiveController — same per-job
// results, same round/event counts, same recorder series — because a
// single shard keeps the base seed, a fresh WFQ clock, and a router
// that degenerates to the identity (see TestFederationSingleShardMatchesLive).
//
// A Federation is not safe for concurrent use; the service layer
// serializes access.
package fed

import (
	"errors"
	"fmt"
	"math"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/metrics"
	"cloudqc/internal/plan"
	"cloudqc/internal/trace"
)

// Config assembles a Federation.
type Config struct {
	// Shard is the per-shard controller template: mode, policy, model,
	// plan-cache size, and the base seed. Its Cloud, Recorder, and
	// SharedWFQ fields must be nil — clouds and recorders are per-shard
	// (below), and the federation owns the shared WFQ clock.
	Shard core.Config
	// Clouds are the shard clouds, one per shard (a cloud.Cloud carries
	// mutable reservations, so shards can never share one instance).
	// len(Clouds) is the shard count.
	Clouds []*cloud.Cloud
	// Recorders, when non-nil, gives shard i the recorder Recorders[i];
	// its length must equal len(Clouds). Entries may be nil.
	Recorders []*metrics.Recorder
	// Routing selects the admission router (default RouteAffinity; see
	// router.go). RouteRandom is the ablation arm.
	Routing Routing
	// SpillDepth is the backlog slack the affinity router tolerates
	// before spilling to the least-loaded shard: spill when the
	// affinity shard's depth exceeds the least-loaded depth by
	// SpillDepth or more. 1 keeps affinity only between equally-loaded
	// shards (the fairness-leaning setting); 0 means DefaultSpillDepth;
	// negative disables spillover entirely.
	SpillDepth int
	// Trace, when non-nil, records every shard's execution spans into
	// one shared recorder — traces follow a job across cross-shard
	// rehomes, and the federation stamps each rehome's routing decision
	// onto the trace. Shard.Trace must be nil (the federation installs
	// this recorder on every shard).
	Trace *trace.Recorder
	// Faults, when non-nil, is the federation-wide fault plan: each
	// shard's QPU and link events are split off with ForShard (nil
	// slices keep that shard on the fault-free path), and shard_drain
	// events are intercepted here — the shard is evacuated and removed
	// from routing at the drain instant. Shard.Faults must be nil.
	Faults *fault.Plan
}

// DefaultSpillDepth is the affinity router's backlog-slack default: an
// affinity shard may run up to this many jobs minus one deeper than
// the least-loaded shard before the router gives up plan-cache
// locality for load.
const DefaultSpillDepth = 4

// Federation owns N controller shards behind one admission router and
// aggregates their results, statistics, and plan-cache counters.
type Federation struct {
	shards []*core.LiveController
	wfq    *core.WFQClock
	router *router
	// jobs preserves global submission order for Results; shardOf maps
	// every accepted job ID to its shard.
	jobs    []*core.Job
	shardOf map[int]int
	// seq is the per-shard auto-ID counter: auto-assigned IDs are
	// shard-tagged (id = seq*N + shard) so every shard owns a disjoint
	// ID space and id mod N recovers the shard.
	seq     []int
	drained bool
	// epr is the shared model's round length (validated identical
	// across shards by construction — one template).
	epr float64
	// trace is the shared span recorder every shard writes into (nil
	// when tracing is off).
	trace *trace.Recorder
	// drains is the pending shard_drain schedule, ordered by (From,
	// Shard); StepUntil intercepts each before stepping past its
	// instant. A drained shard is disabled in the router: never stepped,
	// never routed to, results still readable. fstats counts
	// federation-tier fault activity (drains and drain rescues; shard
	// counters live on the shards).
	drains []fault.Event
	fstats fault.Stats
}

// New validates the configuration and builds the federation: shard i
// runs the template configuration over Clouds[i] with seed
// ShardSeed(template.Seed, i) — shard 0 keeps the base seed, so a
// 1-shard federation is bit-identical to a bare controller — and, in
// WFQ mode, bills tenants into one shared virtual-clock space.
func New(cfg Config) (*Federation, error) {
	n := len(cfg.Clouds)
	if n == 0 {
		return nil, errors.New("fed: Config.Clouds is empty")
	}
	if cfg.Shard.Cloud != nil {
		return nil, errors.New("fed: Config.Shard.Cloud must be nil (clouds are per-shard)")
	}
	if cfg.Shard.Recorder != nil {
		return nil, errors.New("fed: Config.Shard.Recorder must be nil (use Config.Recorders)")
	}
	if cfg.Shard.SharedWFQ != nil {
		return nil, errors.New("fed: Config.Shard.SharedWFQ must be nil (the federation owns the shared clock)")
	}
	if cfg.Shard.Trace != nil {
		return nil, errors.New("fed: Config.Shard.Trace must be nil (use Config.Trace; the recorder is shared)")
	}
	if cfg.Recorders != nil && len(cfg.Recorders) != n {
		return nil, fmt.Errorf("fed: %d recorders for %d shards", len(cfg.Recorders), n)
	}
	if cfg.Shard.Faults != nil {
		return nil, errors.New("fed: Config.Shard.Faults must be nil (use Config.Faults; the federation splits plans per shard)")
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		for i, e := range cfg.Faults.Events {
			if e.Shard >= n {
				return nil, fmt.Errorf("fed: fault event %d targets shard %d, federation has %d", i, e.Shard, n)
			}
		}
	}
	f := &Federation{
		wfq:     core.NewWFQClock(),
		shardOf: make(map[int]int),
		seq:     make([]int, n),
		trace:   cfg.Trace,
		drains:  cfg.Faults.Drains(),
	}
	for i := 0; i < n; i++ {
		if cfg.Clouds[i] == nil {
			return nil, fmt.Errorf("fed: Clouds[%d] is nil", i)
		}
		scfg := cfg.Shard
		scfg.Cloud = cfg.Clouds[i]
		scfg.Seed = ShardSeed(cfg.Shard.Seed, i)
		scfg.SharedWFQ = f.wfq
		// Multi-shard federations take custody of preempted jobs so the
		// router can re-place a resume on any shard; a single shard
		// requeues locally, keeping the 1-shard ≡ bare-controller
		// differential intact.
		scfg.ExportPreempted = n > 1
		if cfg.Recorders != nil {
			scfg.Recorder = cfg.Recorders[i]
		}
		scfg.Trace = cfg.Trace
		scfg.Faults = cfg.Faults.ForShard(i)
		lc, err := core.NewLiveController(scfg)
		if err != nil {
			return nil, fmt.Errorf("fed: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, lc)
	}
	f.epr = f.shards[0].EPRAttempt()
	r, err := newRouter(f.shards, cfg.Routing, cfg.SpillDepth, cfg.Shard.Seed)
	if err != nil {
		return nil, err
	}
	f.router = r
	return f, nil
}

// ShardSeed derives shard i's RNG seed from the federation's base seed
// with the SplitMix64-style finalizer the repo's deterministic
// parallelism uses throughout (exp task seeds, workload tenant seeds).
// Shard 0 keeps the base seed so a 1-shard federation reproduces a
// bare controller bit-identically.
func ShardSeed(seed int64, shard int) int64 {
	if shard == 0 {
		return seed
	}
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NumShards returns the shard count.
func (f *Federation) NumShards() int { return len(f.shards) }

// Shard returns shard i's live controller.
func (f *Federation) Shard(i int) *core.LiveController { return f.shards[i] }

// Now returns the federation's virtual time: the furthest shard clock
// (shards advance in lockstep through StepUntil, so they differ only
// in how far each one's last event landed before the common target).
func (f *Federation) Now() float64 {
	now := f.shards[0].Now()
	for _, s := range f.shards[1:] {
		if t := s.Now(); t > now {
			now = t
		}
	}
	return now
}

// EPRAttempt returns the shared model's EPR-attempt round length in CX
// units (the service pacer's granularity).
func (f *Federation) EPRAttempt() float64 { return f.epr }

// Submit routes the job to a shard and injects it there. A negative
// Job.ID asks the federation to assign one: auto IDs are shard-tagged
// (id ≡ shard mod N) so every shard owns a disjoint ID space.
// Non-negative IDs are the caller's and are checked for federation-wide
// uniqueness. A job without a circuit or with an empty register is
// refused before routing, so it ticks no router counter, pins no
// affinity and burns no ID. Returns core.ErrDrained (wrapped) after
// Drain.
func (f *Federation) Submit(j *core.Job) error {
	if f.drained {
		return fmt.Errorf("fed: %w", core.ErrDrained)
	}
	if j.Circuit == nil {
		return fmt.Errorf("fed: job %d has no circuit", j.ID)
	}
	if j.Circuit.NumQubits() == 0 {
		return fmt.Errorf("fed: job %d has an empty register", j.ID)
	}
	if j.ID >= 0 {
		if _, dup := f.shardOf[j.ID]; dup {
			return fmt.Errorf("fed: duplicate job ID %d", j.ID)
		}
	}
	s, _ := f.router.route(j)
	if j.ID < 0 {
		j.ID = f.nextID(s)
	}
	if err := f.shards[s].Submit(j); err != nil {
		return fmt.Errorf("fed: shard %d: %w", s, err)
	}
	f.jobs = append(f.jobs, j)
	f.shardOf[j.ID] = s
	return nil
}

// nextID returns the shard's next free shard-tagged ID, skipping any
// the caller already claimed explicitly.
func (f *Federation) nextID(shard int) int {
	n := len(f.shards)
	for {
		id := f.seq[shard]*n + shard
		f.seq[shard]++
		if _, taken := f.shardOf[id]; !taken {
			return id
		}
	}
}

// StepUntil advances every shard's virtual clock to t, in shard order
// (deterministic: shard i's events at a given instant always run
// before shard i+1's). Pending shard drains whose instant the step
// would pass are intercepted in schedule order: the shards step to the
// drain instant, the doomed shard is evacuated and rehomed, and the
// step continues — so a drain lands at the same virtual time however
// the caller slices its steps. Returns the first shard error, which is
// sticky on that shard. A NaN t is rejected before any shard steps.
func (f *Federation) StepUntil(t float64) error {
	if math.IsNaN(t) {
		return errors.New("fed: StepUntil at NaN")
	}
	if f.drained {
		return fmt.Errorf("fed: %w", core.ErrDrained)
	}
	if err := f.fireDrains(t); err != nil {
		return err
	}
	return f.stepShards(t)
}

// fireDrains intercepts, in schedule order, every pending shard drain
// whose instant lies before t: the shards step to the drain instant and
// the doomed shard is evacuated and rehomed.
func (f *Federation) fireDrains(t float64) error {
	for len(f.drains) > 0 && f.drains[0].From < t {
		d := f.drains[0]
		if err := f.stepShards(d.From); err != nil {
			return err
		}
		f.drains = f.drains[1:]
		if err := f.drainShard(d.Shard, d.From); err != nil {
			return err
		}
	}
	return nil
}

// stepShards advances every enabled shard to t and rehomes the step's
// preemption exports.
func (f *Federation) stepShards(t float64) error {
	for i, s := range f.shards {
		if f.router.disabled[i] {
			continue
		}
		if err := s.StepUntil(t); err != nil {
			return fmt.Errorf("fed: shard %d: %w", i, err)
		}
	}
	return f.rehome()
}

// drainShard is the shard_drain fault: the shard is evacuated — every
// unsettled job checkpoints off it — and removed from routing, then
// each evacuated job rehomes through the admission router under its
// original ID (resumes carry their checkpoints; queued and pending
// jobs re-enter admission as they were). Settled results stay readable
// on the drained shard. The last enabled shard refuses to drain.
func (f *Federation) drainShard(shard int, at float64) error {
	if f.router.disabled[shard] {
		return fmt.Errorf("fed: shard %d is already drained", shard)
	}
	if len(f.shards)-f.router.numDisabled <= 1 {
		return fmt.Errorf("fed: refusing to drain shard %d: it is the last enabled shard", shard)
	}
	f.fstats.ShardDrains++
	resumes, waiting := f.shards[shard].Evacuate()
	f.router.disable(shard)
	for i := range resumes {
		if err := f.reroute(resumes[i].Job, &resumes[i], shard, at); err != nil {
			return err
		}
		f.fstats.RescuedDrain++
	}
	for _, j := range waiting {
		if err := f.reroute(j, nil, shard, at); err != nil {
			return err
		}
		f.fstats.RescuedDrain++
	}
	return nil
}

// reroute sends a job that left shard src back through the admission
// router and re-enters it on the chosen shard under its original ID:
// as a resume when pj carries its checkpoint, as a plain submission
// otherwise. The trace records the rehome at virtual time at with the
// router's decision kind.
func (f *Federation) reroute(j *core.Job, pj *core.PreemptedJob, src int, at float64) error {
	tgt, kind := f.router.route(j)
	if f.trace != nil {
		if tr := f.trace.Get(j.ID); tr != nil {
			tr.Rehome(at, src, tgt, kind)
		}
	}
	var err error
	if pj != nil {
		err = f.shards[tgt].SubmitResume(*pj)
	} else {
		err = f.shards[tgt].Submit(j)
	}
	if err != nil {
		return fmt.Errorf("fed: rehoming job %d from shard %d to shard %d: %w", j.ID, src, tgt, err)
	}
	f.shardOf[j.ID] = tgt
	return nil
}

// Inject schedules one fault event live — the admin POST /v1/faults
// path. Shard drains queue on the federation's own schedule (clamped
// to now); QPU and link faults forward to the target shard's
// controller. Replay determinism is the caller's concern: the service
// layer logs the injection in the WAL before calling.
func (f *Federation) Inject(e fault.Event) error {
	if f.drained {
		return fmt.Errorf("fed: %w", core.ErrDrained)
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if e.Shard >= len(f.shards) {
		return fmt.Errorf("fed: fault targets shard %d, federation has %d", e.Shard, len(f.shards))
	}
	if f.router.disabled[e.Shard] {
		return fmt.Errorf("fed: shard %d is drained", e.Shard)
	}
	if e.Kind == fault.KindShardDrain {
		if now := f.Now(); e.From < now {
			e.From = now
		}
		i := len(f.drains)
		for i > 0 && (f.drains[i-1].From > e.From ||
			(f.drains[i-1].From == e.From && f.drains[i-1].Shard > e.Shard)) {
			i--
		}
		f.drains = append(f.drains, fault.Event{})
		copy(f.drains[i+1:], f.drains[i:])
		f.drains[i] = e
		return nil
	}
	if err := f.shards[e.Shard].InjectFault(e); err != nil {
		return fmt.Errorf("fed: shard %d: %w", e.Shard, err)
	}
	return nil
}

// FaultStats merges the federation's own fault counters (shard drains,
// drain rescues) with every shard's injector counters.
func (f *Federation) FaultStats() fault.Stats {
	s := f.fstats
	for _, sh := range f.shards {
		s.Add(sh.FaultStats())
	}
	return s
}

// rehome re-routes jobs the shards preempted and exported during the
// last step: each goes back through the admission router — whose
// affinity table re-pins the job's tenant+fingerprint to wherever the
// resume lands, so the pin keeps naming the shard holding the warm
// plan-cache entry — and re-enters that shard under its original ID.
// The resume's arrival event fires on the target shard's next step.
func (f *Federation) rehome() error {
	for src, s := range f.shards {
		for _, pj := range s.TakePreempted() {
			// The rehome happened at the preemption instant.
			if err := f.reroute(pj.Job, &pj, src, pj.At); err != nil {
				return err
			}
		}
	}
	return nil
}

// Drain runs every shard's backlog to completion and retires the
// federation: further Submit/StepUntil/Drain calls fail with
// core.ErrDrained. Every shard is drained even if one fails (a
// poisoned shard must not leak the others' reservations); the first
// error wins. Results are returned in global submission order.
func (f *Federation) Drain() ([]*core.JobResult, error) {
	if f.drained {
		return nil, fmt.Errorf("fed: %w", core.ErrDrained)
	}
	// Scheduled shard drains not yet reached still fire: step to each
	// drain instant and evacuate, so a plan's final drain lands even if
	// the caller never stepped past it.
	firstErr := f.fireDrains(math.Inf(1))
	f.drained = true
	// Jobs preempted on the final step are still awaiting re-routing;
	// hand them to their shards before the backlog runs dry. (During the
	// drain itself shards requeue preemptions locally rather than
	// exporting, so nothing new accumulates below.)
	if err := f.rehome(); err != nil && firstErr == nil {
		firstErr = err
	}
	for i, s := range f.shards {
		if f.router.disabled[i] {
			// Already evacuated by a shard_drain fault; its controller is
			// drained and holds only settled results.
			continue
		}
		if _, err := s.Drain(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fed: shard %d: %w", i, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return f.Results(), nil
}

// ShardOf reports which shard owns an accepted job ID.
func (f *Federation) ShardOf(id int) (int, bool) {
	s, ok := f.shardOf[id]
	return s, ok
}

// Status reports a job's lifecycle state (StatusUnknown for IDs never
// accepted by Submit).
func (f *Federation) Status(id int) core.JobStatus {
	s, ok := f.shardOf[id]
	if !ok {
		return core.StatusUnknown
	}
	return f.shards[s].Status(id)
}

// Result returns a job's result slot and status (see
// LiveController.Result).
func (f *Federation) Result(id int) (*core.JobResult, core.JobStatus) {
	s, ok := f.shardOf[id]
	if !ok {
		return nil, core.StatusUnknown
	}
	return f.shards[s].Result(id)
}

// Results returns every accepted job's result slot in global
// submission order; entries for unsettled jobs are partial.
func (f *Federation) Results() []*core.JobResult {
	out := make([]*core.JobResult, 0, len(f.jobs))
	for _, j := range f.jobs {
		r, _ := f.Result(j.ID)
		out = append(out, r)
	}
	return out
}

// RunStats sums the shards' cumulative scheduling-round and event
// counts.
func (f *Federation) RunStats() core.RunStats {
	var rs core.RunStats
	for _, s := range f.shards {
		st := s.RunStats()
		rs.Rounds += st.Rounds
		rs.Events += st.Events
	}
	return rs
}

// PlanCacheStats merges the shards' plan-cache counters: hit, miss,
// eviction, and size/capacity totals, Enabled when any shard caches.
// The federated hit rate is affinity routing's scoreboard.
func (f *Federation) PlanCacheStats() plan.Stats {
	var m plan.Stats
	for _, s := range f.shards {
		ps := s.PlanCacheStats()
		m.Hits += ps.Hits
		m.Misses += ps.Misses
		m.Evictions += ps.Evictions
		m.Size += ps.Size
		m.Capacity += ps.Capacity
		m.Enabled = m.Enabled || ps.Enabled
	}
	return m
}

// InfeasibleHits sums the shards' plan-cache misses answered by a
// remembered infeasible verdict (LiveController.InfeasibleHits).
func (f *Federation) InfeasibleHits() int64 {
	var n int64
	for _, s := range f.shards {
		n += s.InfeasibleHits()
	}
	return n
}

// PreemptStats sums the shards' preemption counters: a job preempted on
// one shard and resumed on another counts its preemption there and its
// resume here. Resumes also count jobs checkpointed off a QPU outage or
// a drained shard, which were never preempted, so Resumes may exceed
// Preemptions; Resumes ≤ Preemptions + RescuedOutage + RescuedDrain of
// FaultStats holds instead.
func (f *Federation) PreemptStats() core.PreemptStats {
	var ps core.PreemptStats
	for _, s := range f.shards {
		ps.Add(s.PreemptStats())
	}
	return ps
}

// RouterStats reports the admission router's cumulative decision
// counters.
func (f *Federation) RouterStats() RouterStats { return f.router.stats }

// Trace returns the federation's shared span recorder (nil when
// tracing is off).
func (f *Federation) Trace() *trace.Recorder { return f.trace }

// Routing returns the configured routing discipline.
func (f *Federation) Routing() Routing { return f.router.routing }

// Snapshot aggregates the shards' live snapshots: job counts, rounds,
// and events sum; Now is the furthest shard clock; Utilization is
// weighted by each shard's computing capacity so it stays the
// federation-wide reserved fraction.
func (f *Federation) Snapshot() core.LiveSnapshot {
	var agg core.LiveSnapshot
	totalCap := 0
	weighted := 0.0
	for _, s := range f.shards {
		snap := s.Snapshot()
		if snap.Now > agg.Now {
			agg.Now = snap.Now
		}
		agg.Pending += snap.Pending
		agg.Queued += snap.Queued
		agg.Active += snap.Active
		agg.Completed += snap.Completed
		agg.Failed += snap.Failed
		agg.PendingReleases += snap.PendingReleases
		agg.Rounds += snap.Rounds
		agg.Events += snap.Events
		cap := s.TotalComputing()
		totalCap += cap
		weighted += float64(snap.Utilization * float64(cap))
	}
	if totalCap > 0 {
		agg.Utilization = weighted / float64(totalCap)
	}
	return agg
}

// ShardSnapshots returns each shard's own live snapshot, indexed by
// shard.
func (f *Federation) ShardSnapshots() []core.LiveSnapshot {
	out := make([]core.LiveSnapshot, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Snapshot()
	}
	return out
}

// QPULoads returns per-shard QPU load views (QPU ids are local to each
// shard's cloud).
func (f *Federation) QPULoads() [][]core.QPULoad {
	out := make([][]core.QPULoad, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.QPULoads()
	}
	return out
}

// SetOnTransition installs fn as every shard's lifecycle-transition
// hook, tagging each delivery with the shard index. Transition.JobID is
// the federation-level (shard-tagged) id, so one hook observes a job's
// whole life even when preemption rehomes it across shards. A nil fn
// removes the hooks.
func (f *Federation) SetOnTransition(fn func(shard int, tr core.Transition)) {
	for i, s := range f.shards {
		if fn == nil {
			s.SetOnTransition(nil)
			continue
		}
		i := i
		s.SetOnTransition(func(tr core.Transition) { fn(i, tr) })
	}
}

// Mode returns the shards' current admission mode (uniform by
// construction: fed.New configures every shard alike and SetMode
// switches them together).
func (f *Federation) Mode() core.Mode { return f.shards[0].Mode() }

// SetMode switches every shard's admission mode from its next tick on —
// the service layer's overload degradation (WFQ→FIFO) and recovery.
// WFQ virtual clocks survive a round trip through another mode.
func (f *Federation) SetMode(m core.Mode) error {
	for _, s := range f.shards {
		if err := s.SetMode(m); err != nil {
			return err
		}
	}
	return nil
}
