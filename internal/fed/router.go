package fed

import (
	"fmt"
	"math/rand"

	"cloudqc/internal/circuit"
	"cloudqc/internal/core"
)

// Routing selects the federation's admission-routing discipline.
type Routing int

const (
	// RouteAffinity (the default) routes each job to the shard that
	// last served its (tenant, circuit fingerprint) pair — plan-cache
	// locality: that shard's cache already holds the template's compile
	// artifacts — spilling to the least-loaded shard when the affinity
	// shard's backlog runs SpillDepth or more jobs deeper. Unseen
	// pairs start on the least-loaded shard.
	RouteAffinity Routing = iota
	// RouteRandom routes uniformly at random (seeded, deterministic) —
	// the ablation arm that quantifies what affinity routing buys.
	RouteRandom
)

// String returns the routing's CLI/wire name.
func (r Routing) String() string {
	switch r {
	case RouteAffinity:
		return "affinity"
	case RouteRandom:
		return "random"
	default:
		return fmt.Sprintf("routing(%d)", int(r))
	}
}

// ParseRouting maps a CLI routing name to its discipline.
func ParseRouting(s string) (Routing, error) {
	switch s {
	case "", "affinity":
		return RouteAffinity, nil
	case "random":
		return RouteRandom, nil
	default:
		return 0, fmt.Errorf("fed: unknown routing %q (want affinity or random)", s)
	}
}

// RouterStats are the admission router's cumulative decision counters,
// surfaced by the service layer on GET /v1/stats.
type RouterStats struct {
	// AffinityHits counts jobs routed to their remembered (tenant,
	// fingerprint) shard.
	AffinityHits int64 `json:"affinity_hits"`
	// Spills counts affinity decisions overridden by load: the
	// remembered shard's backlog exceeded the least-loaded shard's by
	// the spill depth or more, so the job moved (and the affinity
	// re-pinned to the new shard).
	Spills int64 `json:"spills"`
	// Cold counts first-sight (tenant, fingerprint) pairs, routed to
	// the least-loaded shard.
	Cold int64 `json:"cold"`
	// Random counts random-routing decisions (the ablation arm).
	Random int64 `json:"random"`
}

// affinityKey pins a tenant's circuit template to a shard.
type affinityKey struct {
	tenant int
	fp     circuit.Fingerprint
}

// router is the federation's global admission router.
type router struct {
	shards  []*core.LiveController
	routing Routing
	// spill is the resolved backlog slack (-1 disables spillover).
	spill    int
	rng      *rand.Rand
	affinity map[affinityKey]int
	stats    RouterStats
	// depths is per-route scratch for the shards' backlog signals.
	depths []int
	// caps holds each shard's total computing capacity: shard clouds
	// may differ in size (the k-way partitioner balances vertex counts,
	// not exactly), so load comparisons normalize backlog by capacity —
	// a 4-QPU shard with 3 queued jobs is busier than a 6-QPU shard
	// with 4.
	caps []float64
	// disabled marks shards removed from routing by a shard_drain
	// fault (the federation's one record of drained shards), and
	// numDisabled counts them.
	disabled    []bool
	numDisabled int
}

func newRouter(shards []*core.LiveController, routing Routing, spillDepth int, seed int64) (*router, error) {
	if routing != RouteAffinity && routing != RouteRandom {
		return nil, fmt.Errorf("fed: unknown routing %d", int(routing))
	}
	spill := spillDepth
	if spill == 0 {
		spill = DefaultSpillDepth
	} else if spill < 0 {
		spill = -1
	}
	caps := make([]float64, len(shards))
	for i, s := range shards {
		caps[i] = float64(s.TotalComputing())
		if caps[i] <= 0 {
			caps[i] = 1
		}
	}
	return &router{
		shards:   shards,
		routing:  routing,
		spill:    spill,
		rng:      rand.New(rand.NewSource(seed)),
		affinity: make(map[affinityKey]int),
		depths:   make([]int, len(shards)),
		caps:     caps,
		disabled: make([]bool, len(shards)),
	}, nil
}

// disable removes a drained shard from every future routing decision.
// The caller disables each shard once.
func (r *router) disable(shard int) {
	r.disabled[shard] = true
	r.numDisabled++
}

// route picks the shard for one job and names the decision kind —
// "affinity", "spill", "cold" or "random", the counter it ticked, or
// "direct" for the 1-shard degenerate route, which ticks nothing.
// Deterministic given the submission sequence: load signals come from
// the shards' own state, ties break to the lower shard index, and the
// random arm draws from a seeded stream.
func (r *router) route(j *core.Job) (int, string) {
	n := len(r.shards)
	if n == 1 {
		return 0, "direct"
	}
	if r.routing == RouteRandom {
		r.stats.Random++
		// Draw over the enabled shards only, one draw per decision: with
		// none disabled this is Intn(n) and the walk returns shard k.
		k := r.rng.Intn(n - r.numDisabled)
		for i := 0; i < n; i++ {
			if r.disabled[i] {
				continue
			}
			if k == 0 {
				return i, "random"
			}
			k--
		}
		panic("fed: router: no enabled shard") // unreachable: drainShard keeps one enabled
	}

	// Load and fit signals. A shard whose whole cloud is smaller than
	// the circuit can only fail the job, so it is never offered one
	// unless no shard fits (then the lowest-index least-loaded shard
	// reports the failure deterministically). Drained shards never fit
	// and carry no load signal.
	width := j.Circuit.NumQubits()
	anyFits := false
	for i, s := range r.shards {
		if r.disabled[i] {
			r.depths[i] = 0
			continue
		}
		snap := s.Snapshot()
		r.depths[i] = snap.Pending + snap.Queued + snap.Active
		if s.TotalComputing() >= width {
			anyFits = true
		}
	}
	fits := func(i int) bool {
		if r.disabled[i] {
			return false
		}
		return !anyFits || r.shards[i].TotalComputing() >= width
	}
	// Load is capacity-normalized backlog; least is the fitting shard
	// with the smallest load, ties to the lower index.
	load := func(i int) float64 { return float64(r.depths[i]) / r.caps[i] }
	least := -1
	for i := 0; i < n; i++ {
		if !fits(i) {
			continue
		}
		if least < 0 || load(i) < load(least) {
			least = i
		}
	}

	key := affinityKey{tenant: j.Tenant, fp: j.Circuit.Fingerprint()}
	if s, ok := r.affinity[key]; ok && fits(s) {
		// Spill when the affinity shard carries at least `spill` more
		// jobs than it would at the least-loaded shard's (normalized)
		// load; with equal capacities this is depth[s] >= depth[least]
		// + spill.
		if r.spill >= 0 && float64(r.depths[s]) >= float64(load(least)*r.caps[s])+float64(r.spill) {
			r.stats.Spills++
			r.affinity[key] = least
			return least, "spill"
		}
		r.stats.AffinityHits++
		return s, "affinity"
	}
	r.stats.Cold++
	r.affinity[key] = least
	return least, "cold"
}
