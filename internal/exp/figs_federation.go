package exp

import (
	"fmt"
	"sort"

	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/stats"
	"cloudqc/internal/workload"
)

// FederationRow is one (shard count × routing) cell of the federation
// figure: the same 8-tenant bursty stream over the same total QPU
// capacity, split across more controller shards.
type FederationRow struct {
	Shards  int
	Routing string
	Stats   metrics.OnlineStats
	// Fairness is Jain's index over per-tenant mean JCTs — the
	// cross-shard WFQ guarantee says sharding must not erode it.
	Fairness float64
	// HitRate is the federated plan-cache hit rate (hits over
	// hits+misses, merged across shards) — affinity routing's payoff.
	HitRate float64
	// Router carries the admission router's decision counters.
	Router fed.RouterStats
}

// federationCell is one (shard count, routing) arm of the sweep.
type federationCell struct {
	shards  int
	routing fed.Routing
}

// Federation evaluates the federated controller tier: one topology's
// total capacity is split across 1, 2, 4, ... controller shards (via
// the k-way partitioner) behind the global admission router, and an
// 8-tenant bursty WFQ stream measures what sharding costs. Shard
// counts above 1 run both routing arms — affinity (plan-cache
// locality, spill depth 1) and random (the ablation) — over identical
// job streams, so their hit-rate difference isolates the router.
//
// Two paper-style claims are visible in the figure: cross-shard WFQ
// holds Jain fairness at the single-cloud baseline (the shared
// virtual-clock space bills tenants federation-wide), and affinity
// routing beats random routing on federated plan-cache hit rate.
func Federation(o Options, shardCounts []int, jobsPerTenant int, mode core.Mode) ([]FederationRow, error) {
	o = o.withDefaults()
	if mode == 0 {
		mode = core.WFQMode
	}
	if jobsPerTenant == 0 {
		jobsPerTenant = 5
	}
	if jobsPerTenant < 0 {
		return nil, fmt.Errorf("exp: negative federation jobs per tenant %d", jobsPerTenant)
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	sorted := append([]int(nil), shardCounts...)
	sort.Ints(sorted)
	var cells []federationCell
	for _, n := range sorted {
		if n < 1 {
			return nil, fmt.Errorf("exp: federation shard count %d < 1", n)
		}
		cells = append(cells, federationCell{shards: n, routing: fed.RouteAffinity})
		if n > 1 {
			cells = append(cells, federationCell{shards: n, routing: fed.RouteRandom})
		}
	}

	topo := graph.Random(o.QPUs, o.EdgeProb, o.Seed)
	merged, err := runGrid(o, grid{1, 1, len(cells), o.Reps}, func(c cell, rep int) (runRep, error) {
		fc := cells[c.arm]
		// Every cell is compared against every other (shard counts
		// against the 1-shard baseline, routing arms against each
		// other), so all cells of a rep share one stream: point 0.
		seed := taskSeed(o.Seed, 0, rep)
		jobs, err := federationStream(jobsPerTenant, seed)
		if err != nil {
			return runRep{}, err
		}
		clouds, err := fed.PartitionClouds(topo, fc.shards, o.Computing, o.Comm, 0.1, o.Seed)
		if err != nil {
			return runRep{}, err
		}
		f, err := fed.New(fed.Config{
			Shard: core.Config{
				Placer: place.NewCloudQC(o.placeConfig(seed)),
				Model:  o.model(),
				Mode:   mode,
				Seed:   seed,
			},
			Clouds:  clouds,
			Routing: fc.routing,
			// Spill depth 1: yield plan-cache locality to load early,
			// the fairness-leaning setting for bursty tenant mixes.
			SpillDepth: 1,
		})
		if err != nil {
			return runRep{}, err
		}
		for _, j := range jobs {
			if err := f.StepUntil(j.Arrival); err != nil {
				return runRep{}, err
			}
			if err := f.Submit(j); err != nil {
				return runRep{}, err
			}
		}
		results, err := f.Drain()
		if err != nil {
			return runRep{}, fmt.Errorf("federation %d shards %s rep %d: %w",
				fc.shards, fc.routing, rep, err)
		}
		r := collect(results)
		pc := f.PlanCacheStats()
		r.hits, r.misses = float64(pc.Hits), float64(pc.Misses)
		r.router = f.RouterStats()
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]FederationRow, len(cells))
	for i, r := range merged {
		hitRate := 0.0
		if r.hits+r.misses > 0 {
			hitRate = r.hits / (r.hits + r.misses)
		}
		rows[i] = FederationRow{
			Shards:   cells[r.arm].shards,
			Routing:  cells[r.arm].routing.String(),
			Stats:    r.online(),
			Fairness: metrics.AggregateSLO(r.outcomes).Fairness,
			HitRate:  hitRate,
			Router:   r.router,
		}
	}
	return rows, nil
}

// federationStream builds the figure's 8-tenant bursty mix: each
// tenant repeatedly submits its own template (distinct fingerprints,
// so affinity routing has locality to protect and random routing
// recompiles each template on every shard it scatters to). Templates
// are chosen with comparable gate counts — Jain's index over
// per-tenant mean JCTs should reflect scheduling, not circuit-cost
// luck — and all fit a quarter of the default topology's capacity.
func federationStream(jobsPerTenant int, seed int64) ([]*core.Job, error) {
	templates := []string{
		"wstate_n36", "bv_n70", "cc_n64", "ising_n34",
		"qaoa_n32", "qugan_n39", "ising_n66", "knn_n67",
	}
	mix := make([]workload.TenantSpec, len(templates))
	for i, name := range templates {
		mix[i] = workload.TenantSpec{
			Tenant:           i,
			Priority:         1,
			Workload:         workload.Workload{Name: name, Circuits: []string{name}},
			Jobs:             jobsPerTenant,
			Process:          "bursty",
			MeanInterarrival: 3000,
			MinSlack:         workload.DefaultMinSlack,
			MaxSlack:         workload.DefaultMaxSlack,
		}
	}
	return workload.MultiTenant(mix, seed)
}

// RenderFederation renders federation rows: scaling, fairness, and the
// routing ablation in one table.
func RenderFederation(rows []FederationRow) string {
	headers := []string{"Shards", "Routing", "Done", "Fail", "Jobs/kCX",
		"MeanJCT", "P99JCT", "Jain", "CacheHit", "Affine", "Spill", "Cold", "Rand"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Shards),
			r.Routing,
			fmt.Sprintf("%d", r.Stats.Completed),
			fmt.Sprintf("%d", r.Stats.Failed),
			fmt.Sprintf("%.2f", r.Stats.Throughput),
			stats.F(r.Stats.MeanJCT),
			stats.F(r.Stats.P99JCT),
			fmt.Sprintf("%.3f", r.Fairness),
			fmt.Sprintf("%.2f", r.HitRate),
			fmt.Sprintf("%d", r.Router.AffinityHits),
			fmt.Sprintf("%d", r.Router.Spills),
			fmt.Sprintf("%d", r.Router.Cold),
			fmt.Sprintf("%d", r.Router.Random),
		})
	}
	return stats.Table(headers, out)
}
