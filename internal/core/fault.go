package core

import (
	"errors"
	"fmt"

	"cloudqc/internal/fault"
	"cloudqc/internal/sched"
)

// This file is the core tier of the fault injector (internal/fault):
// QPU outages and link degradations scheduled on the run's own
// discrete-event engine, plus the recovery paths they exercise —
// checkpoint-rescue of evicted jobs (reusing the preemption resume
// machinery) and the bounded retry / route-around policy for remote
// gates crossing degraded links. Every hook sits behind a nil
// lc.faults check, so a run without a FaultPlan is bit-identical to
// the pre-fault controller (TestFaultOffDifferential). Shard drains
// are the federation tier's concern (fed.Config.Faults);
// NewLiveController rejects them.

// faultState is the live fault overlay of one run.
type faultState struct {
	plan *fault.Plan
	// down is the per-QPU outage depth (overlapping outages nest);
	// hold the computing qubits the injector has reserved on each
	// downed QPU so admission cannot place there. Trailing releases
	// maturing mid-outage are swept into hold by faultTopUp.
	down []int
	hold []int
	// scale maps a degraded edge (sorted endpoints) to its effective
	// per-attempt success probability — already validated and scaled by
	// epr.Model.DegradedProb, so 0 means a dead link and nothing is
	// ever negative. Edges absent from the map are healthy.
	scale map[[2]int]float64
	// retries counts each job's failed remote-gate rounds across
	// degraded links toward plan.Budget().
	retries map[int]int
	// base is the model's fault-free success probability; probFn the
	// per-edge probability closure handed to Attempt, bound once so the
	// round hot path does not allocate a method value.
	base   float64
	probFn func(a, b int) float64
}

// edgeKey canonicalizes an undirected edge.
func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (f *faultState) prob(a, b int) float64 {
	if p, ok := f.scale[edgeKey(a, b)]; ok {
		return p
	}
	return f.base
}

// anyDown reports whether any QPU is currently held down — in which
// case a queued job with nothing else running is waiting for the
// pending recovery event, not unplaceable.
func (f *faultState) anyDown() bool {
	for _, d := range f.down {
		if d > 0 {
			return true
		}
	}
	return false
}

// pathDegradation reports whether any edge of an entanglement path is
// degraded, and whether one is outright dead (probability 0).
func (f *faultState) pathDegradation(path []int) (degraded, dead bool) {
	for k := 0; k+1 < len(path); k++ {
		if p, ok := f.scale[edgeKey(path[k], path[k+1])]; ok {
			degraded = true
			if p == 0 {
				dead = true
			}
		}
	}
	return degraded, dead
}

// validateFaults range-checks a core-tier fault plan against the cloud
// and the EPR model at construction time, so a bad plan fails loudly
// in NewLiveController instead of mid-run.
func validateFaults(cfg *Config) error {
	p := cfg.Faults
	if p == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	for i, e := range p.Events {
		if err := validateFaultEvent(cfg, e); err != nil {
			return fmt.Errorf("core: fault event %d: %w", i, err)
		}
	}
	return nil
}

// validateFaultEvent range-checks one shape-valid event against the
// cloud and the EPR model — for a configured plan and for live
// injection alike. Shard drains are the federation tier's concern.
func validateFaultEvent(cfg *Config, e fault.Event) error {
	switch e.Kind {
	case fault.KindShardDrain:
		return errors.New("shard_drain is a federation-tier fault (fed.Config.Faults splits plans with ForShard; fed.Federation.Inject injects one)")
	case fault.KindQPUOutage:
		if e.QPU >= cfg.Cloud.NumQPUs() {
			return fmt.Errorf("fault downs QPU %d, cloud has %d", e.QPU, cfg.Cloud.NumQPUs())
		}
	case fault.KindLinkDegrade:
		topo := cfg.Cloud.Topology()
		if e.U >= topo.N() || e.V >= topo.N() || !topo.HasEdge(e.U, e.V) {
			return fmt.Errorf("fault degrades nonexistent link (%d, %d)", e.U, e.V)
		}
		// Validate at the same checkpoint the fault layer scales
		// through, so a degraded probability can hit exactly 0 but never
		// go negative.
		if _, err := cfg.Model.DegradedProb(e.Scale); err != nil {
			return err
		}
	}
	return nil
}

// faultEnsure lazily builds the run's fault overlay (live injection may
// arm it on a controller configured without a plan).
func (lc *LiveController) faultEnsure(p *fault.Plan) *faultState {
	if lc.faults == nil {
		n := lc.cfg.Cloud.NumQPUs()
		f := &faultState{
			plan:    p,
			down:    make([]int, n),
			hold:    make([]int, n),
			scale:   make(map[[2]int]float64),
			retries: make(map[int]int),
			base:    lc.cfg.Model.SuccessProb,
		}
		f.probFn = f.prob
		lc.faults = f
	}
	return lc.faults
}

// faultInit arms a configured fault plan: the overlay is built and
// every event's start/end lands on the engine as a priority event, so
// at a shared instant faults fire before the controller tick — an
// outage starting exactly at an arrival is seen by that arrival's
// admission. Called once, before any workload event is scheduled.
func (lc *LiveController) faultInit() {
	p := lc.cfg.Faults
	if p == nil {
		return
	}
	lc.faultEnsure(p)
	for _, e := range p.Events {
		lc.scheduleFault(e)
	}
}

// scheduleFault lands one validated event's transitions on the engine.
func (lc *LiveController) scheduleFault(e fault.Event) {
	guard := func(fn func()) func() {
		return func() {
			if lc.err != nil || lc.halted {
				return
			}
			fn()
		}
	}
	switch e.Kind {
	case fault.KindQPUOutage:
		lc.eng.SchedulePriority(e.From, guard(func() { lc.qpuDown(e.QPU, e.From) }))
		lc.eng.SchedulePriority(e.To, guard(func() { lc.qpuUp(e.QPU, e.To) }))
	case fault.KindLinkDegrade:
		lc.eng.SchedulePriority(e.From, guard(func() { lc.linkDegrade(e.U, e.V, e.Scale, e.From) }))
		lc.eng.SchedulePriority(e.To, guard(func() { lc.linkRestore(e.U, e.V) }))
	}
}

// qpuDown takes QPU q down: jobs holding computing qubits there are
// released and either checkpoint-rescued (re-enqueued for re-placement
// elsewhere, keeping id/tenant/WFQ billing exactly like preemption) or
// failed under RecoveryNone, and the QPU's free capacity is reserved
// into hold so admission cannot place onto it until qpuUp.
func (lc *LiveController) qpuDown(q int, t float64) {
	f := lc.faults
	lc.faultStats.QPUOutages++
	f.down[q]++
	if f.down[q] > 1 {
		return // nested outage: victims already gone, capacity already held
	}
	evicted := false
	for _, aj := range lc.active {
		if !placementUses(aj.placement.QubitToQPU, q) {
			continue
		}
		aj.placement.Release(lc.cfg.Cloud)
		if f.plan.Rescue() {
			lc.faultStats.RescuedOutage++
			lc.rescueVictim(aj, t, fault.KindQPUOutage)
		} else {
			lc.faultStats.FailedOutage++
			lc.failVictim(aj, t, fault.KindQPUOutage)
		}
		evicted = true
	}
	if evicted {
		lc.compactActive()
		lc.capacityChanged = true
	}
	if free := lc.cfg.Cloud.FreeComputing(q); free > 0 {
		if err := lc.cfg.Cloud.Reserve(q, free); err != nil {
			lc.err = fmt.Errorf("core: holding downed QPU %d: %w", q, err)
			return
		}
		f.hold[q] += free
	}
	lc.requestTick(t)
}

// qpuUp ends an outage: the held capacity returns and admission retries
// at this instant.
func (lc *LiveController) qpuUp(q int, t float64) {
	f := lc.faults
	f.down[q]--
	if f.down[q] > 0 {
		return
	}
	if f.hold[q] > 0 {
		lc.cfg.Cloud.Release(q, f.hold[q])
		f.hold[q] = 0
	}
	lc.capacityChanged = true
	lc.requestTick(t)
}

// linkDegrade scales one edge's EPR success probability for the
// interval. The effective probability goes through DegradedProb — the
// satellite validation point — so it may hit exactly 0 (a dead link)
// but never goes negative. At most one degrade is active per edge: an
// overlapping event overwrites, and the earliest end clears.
func (lc *LiveController) linkDegrade(u, v int, scale, t float64) {
	lc.faultStats.LinkDegrades++
	p, err := lc.cfg.Model.DegradedProb(scale)
	if err != nil {
		lc.err = fmt.Errorf("core: degrading link (%d, %d) at %g: %w", u, v, t, err)
		return
	}
	lc.faults.scale[edgeKey(u, v)] = p
}

func (lc *LiveController) linkRestore(u, v int) {
	delete(lc.faults.scale, edgeKey(u, v))
}

// placementUses reports whether a qubit→QPU assignment touches QPU q.
func placementUses(qubitToQPU []int, q int) bool {
	for _, p := range qubitToQPU {
		if p == q {
			return true
		}
	}
	return false
}

// compactActive drops preempted and evicted entries (state nil) from
// the active set.
func (lc *LiveController) compactActive() {
	remaining := lc.active[:0]
	for _, aj := range lc.active {
		if aj.state != nil {
			remaining = append(remaining, aj)
		}
	}
	lc.active = remaining
}

// rescueVictim checkpoints one evicted job whose reservations the
// caller already released — preemptVictim's twin on the fault path,
// with ReasonEvicted transitions and a fault span. The checkpoint
// deliberately skips the Checkpointable gate: a failure forfeits
// in-flight partial entanglement, which is physically what an outage
// does, and Checkpoint snapshots exactly the completed gates.
func (lc *LiveController) rescueVictim(aj *activeJob, t float64, kind string) {
	if aj.tr != nil {
		aj.tr.Fault(t, kind)
		aj.tr.Preempt(t)
	}
	lc.requeue(aj, ReasonEvicted)
}

// failVictim fails one evicted job outright (RecoveryNone, or an
// exhausted retry budget). The caller already released its placement.
func (lc *LiveController) failVictim(aj *activeJob, t float64, kind string) {
	lc.releaseJobState(aj.state)
	aj.state = nil
	res := lc.results[aj.job.ID]
	res.PlacedAt, res.Finished, res.JCT, res.WaitTime = 0, 0, 0, 0
	res.RemoteGates = 0
	res.Placement = nil
	if aj.tr != nil {
		aj.tr.Fault(t, kind)
	}
	lc.fail(aj.job.ID, t)
}

// faultTopUp sweeps capacity freed on a downed QPU (a trailing release
// maturing mid-outage) into the outage hold, so the interval guarantee
// — nothing places onto a down QPU — survives release timing.
func (lc *LiveController) faultTopUp() {
	f := lc.faults
	cl := lc.cfg.Cloud
	for q := range f.down {
		if f.down[q] == 0 {
			continue
		}
		if free := cl.FreeComputing(q); free > 0 {
			if err := cl.Reserve(q, free); err != nil {
				lc.err = fmt.Errorf("core: re-holding downed QPU %d: %w", q, err)
				return
			}
			f.hold[q] += free
		}
	}
}

// releaseAll returns every reservation the run still holds to the cloud
// — active placements, trailing releases, and outage holds (the
// error-path and evacuation counterpart of qpuUp's release) — so a
// finished, poisoned, or evacuated run never leaks capacity.
func (lc *LiveController) releaseAll() {
	cl := lc.cfg.Cloud
	for _, aj := range lc.active {
		aj.placement.Release(cl)
	}
	for _, r := range lc.releases {
		r.placement.Release(cl)
	}
	lc.active, lc.releases = nil, nil
	if f := lc.faults; f != nil {
		for q, n := range f.hold {
			if n > 0 {
				cl.Release(q, n)
				f.hold[q] = 0
			}
		}
	}
}

// attempt runs one ready node's EPR attempt, picking the per-edge
// probability overlay: nil on the fault-free path, the degrade overlay
// while any link is degraded (same draw count either way, so a vacuous
// overlay reproduces the fault-free run bit-for-bit).
func (lc *LiveController) attempt(s *sched.JobState, u, pairs int, t float64) {
	var prob func(a, b int) float64
	if f := lc.faults; f != nil && len(f.scale) > 0 {
		prob = f.probFn
	}
	s.Attempt(u, pairs, lc.roundSuccess(pairs), t, lc.cfg.Model, lc.rng, prob)
}

// roundSuccess is cfg.Model.RoundSuccess(pairs), read from the table
// NewLiveController filled; a pair count past it (a Comm raised after
// construction) falls back to the call, which gives the same bits.
func (lc *LiveController) roundSuccess(pairs int) float64 {
	if pairs >= 0 && pairs < len(lc.succ) {
		return lc.succ[pairs]
	}
	return lc.cfg.Model.RoundSuccess(pairs)
}

// faultRetryPass runs after a round's attempts: each granted node still
// short of entanglement whose path crosses a degraded edge burns one
// retry — or, when the path is outright dead and the plan allows it,
// reroutes onto a live path and pays nothing. Jobs that exhaust their
// retry budget fail cleanly and release their capacity. grants holds
// the round's pairs by request position (nil when nothing was
// requested), in the order tick built the requests: each active job's
// ready nodes in turn.
func (lc *LiveController) faultRetryPass(t float64, grants []int) {
	f := lc.faults
	if len(f.scale) == 0 || grants == nil {
		return
	}
	budget := f.plan.Budget()
	exhausted := false
	k := 0
	for idx, aj := range lc.active {
		ready := lc.readyBuf[idx]
		jobGrants := grants[k : k+len(ready)]
		k += len(ready)
		if aj.state.Done() {
			continue // completed this round: retire, don't fail on a spent budget
		}
		for i, u := range ready {
			if jobGrants[i] <= 0 || aj.state.HopsLeft(u) == 0 {
				continue
			}
			degraded, dead := f.pathDegradation(aj.state.Path(u))
			if !degraded {
				continue
			}
			if dead && f.plan.RouteAround {
				if np := lc.routeAround(aj.state.Path(u)); np != nil {
					aj.state.Reroute(u, np)
					lc.faultStats.Reroutes++
					if aj.tr != nil {
						aj.tr.Fault(t, "reroute")
					}
					continue
				}
			}
			lc.faultStats.Retries++
			f.retries[aj.job.ID]++
		}
		if f.retries[aj.job.ID] >= budget {
			lc.faultStats.RetryExhausted++
			delete(f.retries, aj.job.ID)
			aj.placement.Release(lc.cfg.Cloud)
			lc.failVictim(aj, t, "retry_exhausted")
			exhausted = true
		}
	}
	if exhausted {
		lc.compactActive()
		lc.capacityChanged = true
		lc.requestTick(t)
	}
}

// routeAround finds a shortest alternative path between the endpoints
// of a dead entanglement path, avoiding every dead edge: a shortest
// path on a copy of the topology with the dead edges removed, so ties
// break as in the cloud's precomputed trees. Returns nil when the dead
// edges disconnect the endpoints.
func (lc *LiveController) routeAround(path []int) []int {
	topo := lc.cfg.Cloud.Topology().Without(func(u, v int) bool {
		p, ok := lc.faults.scale[edgeKey(u, v)]
		return ok && p == 0
	})
	return topo.ShortestPath(path[0], path[len(path)-1])
}
