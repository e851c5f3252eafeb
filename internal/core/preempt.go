package core

import (
	"cmp"
	"fmt"
	"slices"

	"cloudqc/internal/place"
	"cloudqc/internal/sched"
)

// PreemptPolicy selects whether and why the controller preempts running
// jobs at EPR-round boundaries. Preemption is checkpoint-based: a victim
// is snapshotted (sched.Checkpoint), its computing qubits are released,
// and it re-enters the admission queue as a resume-job that replays the
// checkpoint onto a fresh compile — a plan-cache hit when the cloud is
// back in a seen free state, a correct cold compile otherwise. Victims
// keep their job ID, tenant billing (WFQ virtual-clock position), and
// original admission wait; only their execution stretches.
type PreemptPolicy int

const (
	// PreemptOff disables preemption: placements are final, execution is
	// run-to-completion, and the controller is bit-identical to the
	// pre-preemption code on every observable (results, rounds, events,
	// recorder series) — see TestPreemptionOffDifferential.
	PreemptOff PreemptPolicy = iota
	// PreemptRescue preempts only to rescue deadlines: a queued job with
	// a live deadline may displace running jobs whose deadlines are
	// strictly later (no deadline sorts as infinitely late). Victims are
	// chosen lowest-weight first, most slack first.
	PreemptRescue
	// PreemptPriority preempts on tenant weight: a queued job may
	// displace running jobs of strictly lower weight, independent of
	// deadlines.
	PreemptPriority
)

// String names the policy as the -preempt flag spells it.
func (p PreemptPolicy) String() string {
	switch p {
	case PreemptOff:
		return "off"
	case PreemptRescue:
		return "rescue"
	case PreemptPriority:
		return "priority"
	default:
		return fmt.Sprintf("PreemptPolicy(%d)", int(p))
	}
}

// ParsePreempt maps a CLI policy name to its PreemptPolicy.
func ParsePreempt(s string) (PreemptPolicy, error) {
	switch s {
	case "", "off":
		return PreemptOff, nil
	case "rescue":
		return PreemptRescue, nil
	case "priority":
		return PreemptPriority, nil
	default:
		return 0, fmt.Errorf("core: unknown preemption policy %q (want off, rescue, or priority)", s)
	}
}

// PreemptStats counts preemption activity across a run (or a live
// controller's lifetime): jobs checkpointed off the cloud, resume-jobs
// re-placed, and rescued deadlines — preemption-triggering jobs that
// went on to finish within their deadline.
type PreemptStats struct {
	Preemptions      int `json:"preemptions"`
	Resumes          int `json:"resumes"`
	RescuedDeadlines int `json:"rescued_deadlines"`
}

// Add accumulates other into s (federation-level aggregation).
func (s *PreemptStats) Add(other PreemptStats) {
	s.Preemptions += other.Preemptions
	s.Resumes += other.Resumes
	s.RescuedDeadlines += other.RescuedDeadlines
}

// PreemptedJob is the one resume record of a job checkpointed off the
// cloud by preemption, a QPU outage or a shard drain (see requeue): a
// controller keeps it while the job waits to resume locally, and the
// federation layer collects it from a shard (TakePreempted, Evacuate)
// and re-routes it, possibly to a different shard, via SubmitResume.
// The resume payload is opaque outside core.
type PreemptedJob struct {
	Job *Job
	// At is the virtual instant the job was taken off its QPUs.
	At            float64
	cp            sched.Checkpoint
	firstPlacedAt float64
}

// maybePreempt runs the configured preemption policy at a round
// boundary: pick the neediest queued job (the trigger), and if a set of
// strictly-less-entitled running victims can be checkpointed to make it
// fit, commit the swap, placing the trigger. At most one trigger commits
// per pass — the resulting same-instant tick re-runs admission on any
// capacity left over and, if the queue still warrants it, the next pass
// preempts again. Never called with PreemptOff configured.
func (lc *LiveController) maybePreempt(t float64) {
	if lc.cfg.Preempt == PreemptOff || len(lc.active) == 0 || len(lc.queue) == 0 {
		return
	}
	triggers := make([]*Job, 0, len(lc.queue))
	for _, j := range lc.queue {
		if j.Arrival > t {
			continue
		}
		if lc.cfg.Preempt == PreemptRescue && !(j.Deadline > t) {
			// Rescue only fires for live deadlines: a job without one (or
			// whose deadline already passed) gains nothing from displacing
			// others.
			continue
		}
		triggers = append(triggers, j)
	}
	if len(triggers) == 0 {
		return
	}
	// Neediest first: earliest deadline under rescue, heaviest weight
	// under priority; (arrival, ID) tie-breaks keep the order
	// deterministic.
	slices.SortStableFunc(triggers, func(a, b *Job) int {
		if lc.cfg.Preempt == PreemptRescue {
			if c := compareFloat(deadlineOf(a), deadlineOf(b)); c != 0 {
				return c
			}
		} else if c := compareFloat(b.weight(), a.weight()); c != 0 {
			return c
		}
		return compareArrival(a, b)
	})
	for _, trig := range triggers {
		if lc.tryPreemptFor(trig, t) {
			return
		}
	}
}

// victimEligible reports whether running job v may be displaced by
// queued trigger trig. Both orderings are strict, so a resumed victim is
// by construction less entitled than its trigger and can never displace
// it in turn; and since tryPreemptFor places the trigger itself,
// admission cannot hand the freed capacity back to the victim either.
func victimEligible(policy PreemptPolicy, trig, v *Job) bool {
	switch policy {
	case PreemptRescue:
		return deadlineOf(v) > deadlineOf(trig)
	case PreemptPriority:
		return v.weight() < trig.weight()
	default:
		return false
	}
}

// tryPreemptFor probes whether checkpointing eligible victims frees
// enough capacity to place trig, releasing victims one at a time
// (cheapest entitlement first) and re-compiling trig after each, with
// the same compile() admission uses. On success it reserves the
// placement the last compile returned and starts trig through startJob,
// the call admission makes, so neither a victim nor a job earlier in the
// admission order can take the freed capacity first. On failure every
// released reservation is restored and the cloud is byte-identical to
// before the call.
func (lc *LiveController) tryPreemptFor(trig *Job, t float64) bool {
	var cands []*activeJob
	for _, aj := range lc.active {
		// placedAt < t bounds work per instant: a job placed by this very
		// tick (or a resume placed moments ago at t) is not re-eligible
		// until time advances, so a pass cannot thrash at one instant.
		if !(aj.placedAt < t) {
			continue
		}
		if !victimEligible(lc.cfg.Preempt, trig, aj.job) {
			continue
		}
		// Only between-rounds states are preemptible: a victim holding
		// partial multi-hop entanglement has in-flight remote state with
		// no placement-independent checkpoint.
		if !aj.state.Checkpointable() {
			continue
		}
		cands = append(cands, aj)
	}
	if len(cands) == 0 {
		return false
	}
	// Cheapest victims first: lowest weight, then most slack (latest
	// deadline), then newest (highest ID) — descending ID also makes the
	// order deterministic.
	slices.SortStableFunc(cands, func(x, y *activeJob) int {
		a, b := x.job, y.job
		if c := compareFloat(a.weight(), b.weight()); c != 0 {
			return c
		}
		if c := compareFloat(deadlineOf(b), deadlineOf(a)); c != 0 {
			return c
		}
		return cmp.Compare(b.ID, a.ID)
	})
	released := 0
	fits := false
	var (
		pl       *place.Placement
		dag      *sched.RemoteDAG
		prio     []int
		cacheHit bool
		err      error
	)
	for _, aj := range cands {
		aj.placement.Release(lc.cfg.Cloud)
		released++
		pl, dag, prio, cacheHit, err = lc.compile(trig)
		if err == nil && pl.Reserve(lc.cfg.Cloud) == nil {
			fits = true
			break
		}
	}
	if !fits {
		// Rollback: restore exactly the capacity just released. Reserve
		// cannot fail here — each placement goes back onto QPUs it was
		// occupying a moment ago, and no trig placement was reserved.
		for i := released - 1; i >= 0; i-- {
			if err := cands[i].placement.Reserve(lc.cfg.Cloud); err != nil {
				lc.err = fmt.Errorf("core: preemption rollback failed for job %d: %w", cands[i].job.ID, err)
				return false
			}
		}
		return false
	}
	for _, aj := range cands[:released] {
		lc.preemptVictim(aj, t)
	}
	lc.compactActive()
	if lc.cfg.Preempt == PreemptRescue {
		lc.rescued[trig.ID] = true
	}
	lc.queue = slices.DeleteFunc(lc.queue, func(j *Job) bool { return j == trig })
	lc.startJob(trig, pl, dag, prio, cacheHit, t)
	// The same-instant tick re-runs admission on whatever the victims
	// freed beyond trig's placement.
	lc.capacityChanged = true
	lc.requestTick(t)
	return true
}

// preemptVictim checkpoints one victim whose reservations the probe
// already released and requeues it (see requeue).
func (lc *LiveController) preemptVictim(aj *activeJob, t float64) {
	lc.preempt.Preemptions++
	if aj.tr != nil {
		// The suspension span opens here and closes at the resume
		// placement — on whichever shard the federation rehomes it to,
		// since the recorder is shared.
		aj.tr.Preempt(t)
	}
	lc.requeue(aj, ReasonPreempted, t)
}

// requeue checkpoints a job taken off the cloud at t (its reservations
// already released) into its PreemptedJob, retires its execution state
// to the pool, and moves it to StatusQueued: the one checkpoint-off
// path, behind preemption, outage rescue and Evacuate. An evacuated
// controller, and a federation shard still taking submissions
// (ExportPreempted, not draining), export the record for the router to
// re-route; otherwise the job re-enqueues locally as a resume-job.
// Either way it keeps its ID, arrival, and first-placement timestamp,
// so its eventual result reports admission wait only (requeue time
// lands in JCT, not WaitTime).
func (lc *LiveController) requeue(aj *activeJob, why TransitionReason, t float64) {
	pj := PreemptedJob{Job: aj.job, At: t, cp: aj.state.Checkpoint(), firstPlacedAt: aj.firstPlacedAt}
	lc.releaseJobState(aj.state)
	aj.state = nil
	lc.setStatusReason(pj.Job.ID, StatusQueued, why)
	if lc.drained || lc.cfg.ExportPreempted && !lc.draining {
		lc.exported = append(lc.exported, pj)
		return
	}
	lc.resume[pj.Job.ID] = pj
	lc.queue = append(lc.queue, pj.Job)
}
