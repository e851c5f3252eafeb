// Package fault is the deterministic fault injector: a seeded,
// virtual-time FaultPlan of QPU outages, link degradations, and
// federation shard drains, scheduled on the controller's discrete-event
// clock so every run — including the recovery work the faults trigger —
// is bit-reproducible.
//
// The plan is pure data. The controller tiers consume it:
//
//   - internal/core schedules qpu_outage and link_degrade events on its
//     engine: an outage checkpoints the jobs holding qubits on the
//     downed QPU (or fails them under RecoveryNone), holds the QPU's
//     capacity, and zeroes its EPR budget for the interval; a degrade
//     scales one edge's EPR success probability (down to exactly 0 for
//     a dead link) and arms the executor's bounded retry / route-around
//     policy.
//   - internal/fed intercepts shard_drain events: the shard is
//     evacuated — every resident job checkpoints and rehomes through
//     the admission router — and then removed from routing.
//   - internal/service accepts live injections on POST /v1/faults and
//     records them in the WAL so a restarted daemon replays them
//     bit-identically.
//
// A nil *Plan keeps every hook dormant: the controllers are
// bit-identical to the fault-free code (TestFaultOffDifferential).
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Fault kinds, the Event.Kind vocabulary (and the `kind` label of
// cloudqcd_faults_injected_total).
const (
	// KindQPUOutage takes one QPU down for [From, To): running jobs
	// holding computing qubits there are rescued (checkpointed and
	// re-enqueued) or failed, the QPU's capacity is held, and its EPR
	// budget is zero for the interval.
	KindQPUOutage = "qpu_outage"
	// KindLinkDegrade scales one edge's EPR success probability by
	// Scale for [From, To). Scale 0 kills the link outright; remote
	// gates crossing it retry, route around, or exhaust their budget.
	KindLinkDegrade = "link_degrade"
	// KindShardDrain evacuates one federation shard at From: every
	// resident job checkpoints and rehomes through the router, then the
	// shard is removed from routing permanently.
	KindShardDrain = "shard_drain"
)

// Recovery policies for jobs evicted by a QPU outage.
const (
	// RecoveryRescue (the default) checkpoints evicted jobs and
	// re-enqueues them for re-placement; resumes keep id, tenant, and
	// WFQ billing exactly like preemption.
	RecoveryRescue = "rescue"
	// RecoveryNone fails evicted jobs outright — the no-recovery
	// ablation arm of the faults figure.
	RecoveryNone = "none"
)

// DefaultRetryBudget is a job's remote-gate retry allowance under
// degraded links when Plan.RetryBudget is 0.
const DefaultRetryBudget = 64

// Event is one scheduled fault. Times are virtual CX units on the
// controller clock. Shard selects the federation shard (0 for an
// unfederated controller).
type Event struct {
	Kind  string  `json:"kind"`
	Shard int     `json:"shard,omitempty"`
	QPU   int     `json:"qpu,omitempty"` // qpu_outage: the downed QPU
	U     int     `json:"u,omitempty"`   // link_degrade: edge endpoint
	V     int     `json:"v,omitempty"`   // link_degrade: edge endpoint
	Scale float64 `json:"scale"`         // link_degrade: success-probability multiplier in [0, 1]
	From  float64 `json:"from"`          // fault start (shard_drain: the drain instant)
	To    float64 `json:"to,omitempty"`  // fault end, exclusive (unused by shard_drain)
}

// Validate checks one event's shape.
func (e Event) Validate() error {
	switch e.Kind {
	case KindQPUOutage:
		if e.QPU < 0 {
			return fmt.Errorf("fault: qpu_outage with negative QPU %d", e.QPU)
		}
		if !(e.To > e.From) { // a NaN end is no interval either
			return fmt.Errorf("fault: qpu_outage interval [%v, %v) is empty", e.From, e.To)
		}
	case KindLinkDegrade:
		if e.U < 0 || e.V < 0 || e.U == e.V {
			return fmt.Errorf("fault: link_degrade on bad edge (%d, %d)", e.U, e.V)
		}
		// The satellite guarantee: a degraded edge may hit exactly 0
		// but never goes negative (and never amplifies past 1).
		if e.Scale < 0 || e.Scale > 1 || math.IsNaN(e.Scale) {
			return fmt.Errorf("fault: link_degrade scale %v outside [0, 1]", e.Scale)
		}
		if !(e.To > e.From) {
			return fmt.Errorf("fault: link_degrade interval [%v, %v) is empty", e.From, e.To)
		}
	case KindShardDrain:
		// From is the drain instant; To is ignored (a drain is final).
	default:
		return fmt.Errorf("fault: unknown kind %q", e.Kind)
	}
	if e.Shard < 0 {
		return fmt.Errorf("fault: %s with negative shard %d", e.Kind, e.Shard)
	}
	if e.From < 0 || math.IsNaN(e.From) {
		return fmt.Errorf("fault: %s at negative time %v", e.Kind, e.From)
	}
	return nil
}

// Plan is a full fault schedule plus the recovery knobs it exercises.
type Plan struct {
	// Recovery selects what happens to jobs evicted by a QPU outage:
	// "rescue" (checkpoint and re-enqueue; empty means rescue) or
	// "none" (fail them — the ablation arm).
	Recovery string `json:"recovery,omitempty"`
	// RouteAround re-paths remote gates whose entanglement path
	// crosses a dead (scale 0) edge onto an alternative path avoiding
	// it, instead of burning retries against a link that cannot succeed.
	RouteAround bool `json:"route_around,omitempty"`
	// RetryBudget bounds one job's failed remote-gate rounds across
	// degraded links; past it the job fails cleanly. 0 means
	// DefaultRetryBudget.
	RetryBudget int `json:"retry_budget,omitempty"`
	// Events is the fault schedule.
	Events []Event `json:"events"`
}

// Validate checks the whole plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	switch p.Recovery {
	case "", RecoveryRescue, RecoveryNone:
	default:
		return fmt.Errorf("fault: unknown recovery policy %q", p.Recovery)
	}
	if p.RetryBudget < 0 {
		return fmt.Errorf("fault: negative retry budget %d", p.RetryBudget)
	}
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Rescue reports whether evicted jobs are checkpoint-rescued (the
// default) rather than failed.
func (p *Plan) Rescue() bool { return p == nil || p.Recovery != RecoveryNone }

// Budget resolves the per-job retry budget.
func (p *Plan) Budget() int {
	if p == nil || p.RetryBudget == 0 {
		return DefaultRetryBudget
	}
	return p.RetryBudget
}

// ForShard extracts the core-tier slice of the plan for one shard: its
// QPU and link events, with the recovery knobs carried over. Shard
// drains are a federation-tier concern and are excluded. Returns nil
// when the shard has no events — the shard controller stays on the
// fault-free path.
func (p *Plan) ForShard(shard int) *Plan {
	if p == nil {
		return nil
	}
	var evs []Event
	for _, e := range p.Events {
		if e.Shard == shard && e.Kind != KindShardDrain {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		return nil
	}
	return &Plan{Recovery: p.Recovery, RouteAround: p.RouteAround, RetryBudget: p.RetryBudget, Events: evs}
}

// Drains returns the plan's shard_drain events ordered by time (ties by
// shard index), or nil.
func (p *Plan) Drains() []Event {
	if p == nil {
		return nil
	}
	var out []Event
	for _, e := range p.Events {
		if e.Kind == KindShardDrain {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// Load reads and validates a JSON plan file (the -faults flag).
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault: parse %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return &p, nil
}

// Stats counts what the injector did and what recovery it forced. The
// zero value is ready; all counters are monotone.
type Stats struct {
	// QPUOutages, LinkDegrades, ShardDrains count injected faults by
	// kind, at fire time.
	QPUOutages, LinkDegrades, ShardDrains int64
	// RescuedOutage and RescuedDrain count jobs checkpointed off a
	// downed QPU / drained shard and re-enqueued (the `cause` label of
	// cloudqcd_jobs_rescued_total).
	RescuedOutage, RescuedDrain int64
	// FailedOutage counts jobs failed outright by an outage under
	// RecoveryNone.
	FailedOutage int64
	// Retries counts remote-gate rounds that failed across a degraded
	// link; Reroutes counts dead-edge route-arounds; RetryExhausted
	// counts jobs failed after burning their whole retry budget.
	Retries, Reroutes, RetryExhausted int64
}

// Add accumulates o into s (federation-level aggregation).
func (s *Stats) Add(o Stats) {
	s.QPUOutages += o.QPUOutages
	s.LinkDegrades += o.LinkDegrades
	s.ShardDrains += o.ShardDrains
	s.RescuedOutage += o.RescuedOutage
	s.RescuedDrain += o.RescuedDrain
	s.FailedOutage += o.FailedOutage
	s.Retries += o.Retries
	s.Reroutes += o.Reroutes
	s.RetryExhausted += o.RetryExhausted
}

// OutageSchedule builds a deterministic single-shard plan of n QPU
// outages of the given duration, evenly spread over [start, horizon):
// outage i downs QPU ((seed + i·stride) mod qpus) at
// start + i·(horizon−start)/n. A SplitMix64-style finalizer decorrelates
// the QPU choice from the slot so neighbouring outages do not pile onto
// one QPU. It is the faults figure's failure-rate axis: n is the rate.
func OutageSchedule(qpus, n int, start, horizon, duration float64, seed int64) *Plan {
	if n <= 0 || qpus <= 0 || horizon <= start {
		return nil
	}
	gap := (horizon - start) / float64(n)
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		q := int((z ^ (z >> 31)) % uint64(qpus))
		at := start + float64(float64(i)*gap)
		evs = append(evs, Event{Kind: KindQPUOutage, QPU: q, From: at, To: at + duration})
	}
	return &Plan{Events: evs}
}
