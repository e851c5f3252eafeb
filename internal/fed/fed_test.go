package fed

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/workload"
)

// fedStream mirrors the core live differential test's stream: batch or
// Poisson arrivals, optionally with tenants, weights, and depth-scaled
// deadlines. Streams are rebuilt per run so the reference and the
// federation never share Job pointers.
func fedStream(t *testing.T, poisson, tenants bool, seed int64) []*core.Job {
	t.Helper()
	names := []string{"qugan_n39", "qft_n29", "ghz_n127", "qugan_n71", "ising_n66", "qft_n63", "cat_n65", "qft_n29"}
	rng := rand.New(rand.NewSource(seed))
	arrival := 0.0
	jobs := make([]*core.Job, 0, len(names))
	for i, name := range names {
		c, err := qlib.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		j := &core.Job{ID: i, Circuit: c, Arrival: arrival}
		if tenants {
			j.Tenant = i % 3
			j.Priority = 1 << (i % 3)
			j.Deadline = arrival + float64(c.Depth())*(20+rng.Float64()*60)
		}
		jobs = append(jobs, j)
		if poisson {
			arrival += rng.ExpFloat64() * 1500
		}
	}
	return jobs
}

// shardTemplate is the per-shard controller template the differential
// and routing tests share (no cloud, no recorder — per-shard fields).
func shardTemplate(seed int64, mode core.Mode) core.Config {
	pCfg := place.DefaultConfig()
	pCfg.Seed = seed
	return core.Config{
		Placer: place.NewCloudQC(pCfg),
		Mode:   mode,
		Seed:   seed,
	}
}

// TestFederationSingleShardMatchesLive is the federation tier's
// differential guarantee: a 1-shard federation is bit-identical to a
// bare LiveController — same per-job results, same round and event
// counts, same recorder series, same SLO aggregates — for batch and
// Poisson streams under FIFO, EDF, WFQ, and batch admission.
func TestFederationSingleShardMatchesLive(t *testing.T) {
	cases := []struct {
		name             string
		poisson, tenants bool
		mode             core.Mode
	}{
		{"batch-fifo", false, false, core.FIFOMode},
		{"batch-wfq", false, true, core.WFQMode},
		{"poisson-fifo", true, false, core.FIFOMode},
		{"poisson-wfq", true, true, core.WFQMode},
		{"poisson-batchmode", true, false, core.BatchMode},
		{"poisson-edf", true, true, core.EDFMode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				jobsA := fedStream(t, tc.poisson, tc.tenants, seed)
				jobsB := fedStream(t, tc.poisson, tc.tenants, seed)

				cfgA := shardTemplate(seed, tc.mode)
				cfgA.Cloud = cloud.NewRandom(10, 0.3, 20, 5, 1)
				recA := metrics.NewRecorder(0)
				cfgA.Recorder = recA
				lc, err := core.NewLiveController(cfgA)
				if err != nil {
					t.Fatal(err)
				}

				recB := metrics.NewRecorder(0)
				f, err := New(Config{
					Shard:     shardTemplate(seed, tc.mode),
					Clouds:    []*cloud.Cloud{cloud.NewRandom(10, 0.3, 20, 5, 1)},
					Recorders: []*metrics.Recorder{recB},
				})
				if err != nil {
					t.Fatal(err)
				}

				drive := func(submit func(*core.Job) error, step func(float64) error, jobs []*core.Job) {
					for i, j := range jobs {
						if i > 0 && j.Arrival > jobs[i-1].Arrival {
							if err := step((jobs[i-1].Arrival + j.Arrival) / 2); err != nil {
								t.Fatal(err)
							}
						}
						if err := step(j.Arrival); err != nil {
							t.Fatal(err)
						}
						if err := submit(j); err != nil {
							t.Fatal(err)
						}
					}
				}
				drive(lc.Submit, lc.StepUntil, jobsA)
				drive(f.Submit, f.StepUntil, jobsB)

				want, err := lc.Drain()
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.Drain()
				if err != nil {
					t.Fatal(err)
				}

				if len(got) != len(want) {
					t.Fatalf("result count %d vs %d", len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if g.Job.ID != w.Job.ID || g.Failed != w.Failed ||
						g.PlacedAt != w.PlacedAt || g.Finished != w.Finished ||
						g.JCT != w.JCT || g.WaitTime != w.WaitTime ||
						g.RemoteGates != w.RemoteGates {
						t.Fatalf("seed %d job %d diverged:\nlive %+v\nfed  %+v",
							seed, w.Job.ID, *w, *g)
					}
				}
				if lc.RunStats() != f.RunStats() {
					t.Fatalf("seed %d run stats diverged: live %+v, fed %+v",
						seed, lc.RunStats(), f.RunStats())
				}
				sa, sb := recA.Samples(), recB.Samples()
				if len(sa) != len(sb) {
					t.Fatalf("seed %d recorder length diverged: %d vs %d", seed, len(sa), len(sb))
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Fatalf("seed %d sample %d diverged: %+v vs %+v", seed, i, sa[i], sb[i])
					}
				}
				if tc.tenants {
					sw := metrics.AggregateSLO(core.Outcomes(want))
					sg := metrics.AggregateSLO(core.Outcomes(got))
					if sw.Attainment != sg.Attainment || sw.Fairness != sg.Fairness ||
						len(sw.PerTenant) != len(sg.PerTenant) {
						t.Fatalf("seed %d SLO stats diverged:\nlive %+v\nfed  %+v", seed, sw, sg)
					}
				}
			}
		})
	}
}

// uniformClouds builds n same-shape paper clouds (separate instances —
// reservations are mutable state).
func uniformClouds(n, qpus int) []*cloud.Cloud {
	out := make([]*cloud.Cloud, n)
	for i := range out {
		out[i] = cloud.NewRandom(qpus, 0.3, 20, 5, 1)
	}
	return out
}

// TestFederationAutoIDsShardTagged: auto-assigned IDs (Submit with a
// negative ID) are disjoint across shards and recover their shard by
// id mod N; explicitly claimed IDs are honored and never reissued.
func TestFederationAutoIDsShardTagged(t *testing.T) {
	f, err := New(Config{
		Shard:   shardTemplate(1, core.FIFOMode),
		Clouds:  uniformClouds(3, 8),
		Routing: RouteRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Claim an ID by hand first; auto assignment must skip it.
	if err := f.Submit(&core.Job{ID: 4, Circuit: qlib.GHZ(6)}); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{4: true}
	for i := 0; i < 12; i++ {
		j := &core.Job{ID: -1, Circuit: qlib.GHZ(6)}
		if err := f.Submit(j); err != nil {
			t.Fatal(err)
		}
		if j.ID < 0 {
			t.Fatalf("submit left ID unassigned: %d", j.ID)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate auto ID %d", j.ID)
		}
		seen[j.ID] = true
		s, ok := f.ShardOf(j.ID)
		if !ok {
			t.Fatalf("job %d not registered", j.ID)
		}
		if j.ID%f.NumShards() != s {
			t.Fatalf("auto ID %d not tagged with shard %d", j.ID, s)
		}
	}
	if err := f.Submit(&core.Job{ID: 4, Circuit: qlib.GHZ(6)}); err == nil {
		t.Fatal("duplicate explicit ID accepted")
	}
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationRejectedSubmitLeavesNoTrace: a submission the
// federation refuses — here a zero-value circuit with an empty
// register — must not touch the router (no counter tick, no affinity
// pin, no random draw), burn an auto ID, or write one into the
// caller's Job. A twin federation that never saw the rejected job must
// hand the next submission the same ID on the same shard.
func TestFederationRejectedSubmitLeavesNoTrace(t *testing.T) {
	for _, routing := range []Routing{RouteAffinity, RouteRandom} {
		t.Run(routing.String(), func(t *testing.T) {
			build := func() *Federation {
				f, err := New(Config{
					Shard:   shardTemplate(1, core.FIFOMode),
					Clouds:  uniformClouds(2, 8),
					Routing: routing,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Submit(&core.Job{ID: -1, Circuit: qlib.GHZ(6)}); err != nil {
					t.Fatal(err)
				}
				return f
			}
			f, twin := build(), build()
			stats, pins := f.RouterStats(), len(f.router.affinity)

			bad := &core.Job{ID: -1, Tenant: 1, Circuit: &circuit.Circuit{}}
			if err := f.Submit(bad); err == nil {
				t.Fatal("empty-register circuit accepted")
			}
			if bad.ID != -1 {
				t.Fatalf("rejected submit wrote ID %d into the caller's job", bad.ID)
			}
			if got := f.RouterStats(); got != stats {
				t.Fatalf("rejected submit moved router stats %+v -> %+v", stats, got)
			}
			if got := len(f.router.affinity); got != pins {
				t.Fatalf("rejected submit pinned an affinity entry (%d -> %d)", pins, got)
			}

			next := &core.Job{ID: -1, Tenant: 2, Circuit: qlib.GHZ(6)}
			want := &core.Job{ID: -1, Tenant: 2, Circuit: qlib.GHZ(6)}
			if err := f.Submit(next); err != nil {
				t.Fatal(err)
			}
			if err := twin.Submit(want); err != nil {
				t.Fatal(err)
			}
			if next.ID != want.ID {
				t.Fatalf("next auto ID %d after a rejected submit, want %d", next.ID, want.ID)
			}
			if got := f.RouterStats(); got != twin.RouterStats() {
				t.Fatalf("router stats %+v, twin %+v", got, twin.RouterStats())
			}
		})
	}
}

// TestFederationDrainedErrors: after Drain, every entry point fails
// with core.ErrDrained, recognizable through errors.Is despite the
// federation's wrapping.
func TestFederationDrainedErrors(t *testing.T) {
	f, err := New(Config{
		Shard:  shardTemplate(1, core.FIFOMode),
		Clouds: uniformClouds(2, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(&core.Job{ID: 0, Circuit: qlib.GHZ(6)}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(&core.Job{ID: 1, Circuit: qlib.GHZ(6)}); !errors.Is(err, core.ErrDrained) {
		t.Fatalf("submit after drain: err = %v, want ErrDrained", err)
	}
	if err := f.StepUntil(10); !errors.Is(err, core.ErrDrained) {
		t.Fatalf("step after drain: err = %v, want ErrDrained", err)
	}
	if _, err := f.Drain(); !errors.Is(err, core.ErrDrained) {
		t.Fatalf("second drain: err = %v, want ErrDrained", err)
	}
}

// TestFederationStepUntilNaN: a NaN step fails before any shard steps
// or any drain fires, and the clock stays where it was.
func TestFederationStepUntilNaN(t *testing.T) {
	f, err := New(Config{
		Shard:  shardTemplate(1, core.FIFOMode),
		Clouds: uniformClouds(2, 8),
		Faults: &fault.Plan{Events: []fault.Event{{Kind: fault.KindShardDrain, Shard: 1, From: 150}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StepUntil(100); err != nil {
		t.Fatal(err)
	}
	if err := f.StepUntil(math.NaN()); err == nil {
		t.Fatal("StepUntil(NaN) returned nil")
	}
	if now := f.Now(); now != 100 {
		t.Fatalf("Now() = %v after StepUntil(NaN), want 100", now)
	}
	if len(f.drains) != 1 {
		t.Fatalf("StepUntil(NaN) fired a drain: %d pending, want 1", len(f.drains))
	}
	if err := f.StepUntil(50); err != nil || f.Now() != 100 {
		t.Fatalf("StepUntil(50): err %v, Now %v; want nil, 100", err, f.Now())
	}
}

// TestFederationAffinityBeatsRandom pins the tentpole's payoff claim:
// on a repeated-template multi-tenant stream, affinity routing's
// federated plan-cache hit rate strictly exceeds the random-routing
// ablation's. Both runs see the identical stream and fleet.
func TestFederationAffinityBeatsRandom(t *testing.T) {
	hitRate := func(routing Routing) float64 {
		f, err := New(Config{
			Shard:   shardTemplate(7, core.FIFOMode),
			Clouds:  uniformClouds(4, 10),
			Routing: routing,
		})
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"qft_n29", "qugan_n39", "ghz_n127", "cat_n65"}
		rng := rand.New(rand.NewSource(7))
		arrival := 0.0
		id := 0
		for round := 0; round < 6; round++ {
			for tenant, name := range names {
				c, err := qlib.Build(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.StepUntil(arrival); err != nil {
					t.Fatal(err)
				}
				if err := f.Submit(&core.Job{ID: id, Circuit: c, Arrival: arrival, Tenant: tenant}); err != nil {
					t.Fatal(err)
				}
				id++
				arrival += rng.ExpFloat64() * 2000
			}
		}
		if _, err := f.Drain(); err != nil {
			t.Fatal(err)
		}
		ps := f.PlanCacheStats()
		if ps.Hits+ps.Misses == 0 {
			t.Fatal("plan cache never consulted")
		}
		return float64(ps.Hits) / float64(ps.Hits+ps.Misses)
	}
	aff := hitRate(RouteAffinity)
	rnd := hitRate(RouteRandom)
	if aff <= rnd {
		t.Fatalf("affinity hit rate %.3f not above random ablation %.3f", aff, rnd)
	}
}

// TestFederationCrossShardFairness: the shared WFQ clock holds weighted
// fairness across shards — on an 8-tenant bursty mix over the same
// total capacity (one 20-QPU cloud vs that topology partitioned into 4
// shard clouds), the 4-shard federation's Jain index over per-tenant
// mean JCTs stays within 5% of the single-cloud WFQ baseline's.
func TestFederationCrossShardFairness(t *testing.T) {
	base := fedFairness(t, 1)
	fed4 := fedFairness(t, 4)
	if base <= 0 {
		t.Fatalf("degenerate baseline fairness %v", base)
	}
	if diff := fed4 - base; diff < -0.05*base || diff > 0.05*base {
		t.Fatalf("4-shard Jain %.4f deviates more than 5%% from single-cloud baseline %.4f", fed4, base)
	}
}

// fedFairness runs the 8-tenant bursty mix over the paper's 20-QPU
// topology split into the given shard count and returns the Jain
// fairness index over per-tenant mean JCTs.
func fedFairness(t *testing.T, shards int) float64 {
	t.Helper()
	// One template per tenant, all of comparable gate count and all
	// fitting a 1/4-topology shard (~4 QPUs × 20 computing): Jain over
	// per-tenant mean JCTs then reflects scheduling, not circuit-cost
	// luck.
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
			Jobs:             4,
			Process:          "bursty",
			MeanInterarrival: 3000,
			MinSlack:         workload.DefaultMinSlack,
			MaxSlack:         workload.DefaultMaxSlack,
		}
	}
	jobs, err := workload.MultiTenant(mix, 11)
	if err != nil {
		t.Fatal(err)
	}
	topo := graph.Random(16, 0.3, 1)
	clouds, err := PartitionClouds(topo, shards, 20, 5, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Shard:      shardTemplate(11, core.WFQMode),
		Clouds:     clouds,
		SpillDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := f.StepUntil(j.Arrival); err != nil {
			t.Fatal(err)
		}
		if err := f.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Failed {
			t.Fatalf("job %d failed in %d-shard run", r.Job.ID, shards)
		}
	}
	return metrics.AggregateSLO(core.Outcomes(res)).Fairness
}

// TestFederationSpillover: when the affinity shard's backlog runs
// deeper than SpillDepth beyond the least-loaded shard, the router
// spills and re-pins.
func TestFederationSpillover(t *testing.T) {
	f, err := New(Config{
		Shard:      shardTemplate(3, core.FIFOMode),
		Clouds:     uniformClouds(2, 8),
		SpillDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One tenant, one template, submitted back to back with no clock
	// advance: every job lands on the affinity shard until its backlog
	// exceeds the empty rival's by more than 2.
	c := qlib.GHZ(100) // wide enough that one shard runs one at a time
	for i := 0; i < 8; i++ {
		if err := f.Submit(&core.Job{ID: i, Circuit: c, Tenant: 1}); err != nil {
			t.Fatal(err)
		}
	}
	rs := f.RouterStats()
	if rs.Spills == 0 {
		t.Fatalf("no spillover after 8 back-to-back submissions: %+v", rs)
	}
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionClouds: partitioning the paper topology conserves QPUs,
// yields connected shard clouds, and is deterministic.
func TestPartitionClouds(t *testing.T) {
	topo := graph.Random(20, 0.3, 1)
	clouds, err := PartitionClouds(topo, 4, 20, 5, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(clouds) != 4 {
		t.Fatalf("got %d clouds, want 4", len(clouds))
	}
	total := 0
	for i, cl := range clouds {
		if cl.NumQPUs() == 0 {
			t.Fatalf("shard %d cloud empty", i)
		}
		total += cl.NumQPUs()
		if !cl.CapacityGraph().Connected() {
			t.Fatalf("shard %d cloud disconnected", i)
		}
	}
	if total != 20 {
		t.Fatalf("partition lost QPUs: %d of 20", total)
	}
	again, err := PartitionClouds(topo, 4, 20, 5, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clouds {
		if clouds[i].Signature() != again[i].Signature() {
			t.Fatalf("partition not deterministic at shard %d", i)
		}
	}
}

// TestShardSeedDerivation: shard 0 keeps the base seed (the
// single-shard equivalence hinge), other shards decorrelate.
func TestShardSeedDerivation(t *testing.T) {
	if got := ShardSeed(42, 0); got != 42 {
		t.Fatalf("ShardSeed(42, 0) = %d, want 42", got)
	}
	seen := map[int64]bool{42: true}
	for i := 1; i < 16; i++ {
		s := ShardSeed(42, i)
		if seen[s] {
			t.Fatalf("shard %d seed collides: %d", i, s)
		}
		seen[s] = true
	}
}

// TestFederationInfeasibleHitsSumShards: the federation's count of
// compiles answered by a remembered infeasible verdict is the sum of
// its shards' counts, on a batch stream that oversubscribes two shards
// sharing one placer.
func TestFederationInfeasibleHitsSumShards(t *testing.T) {
	f, err := New(Config{Shard: shardTemplate(3, core.FIFOMode), Clouds: uniformClouds(2, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range fedStream(t, false, false, 3) {
		if err := f.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := 0; i < f.NumShards(); i++ {
		sum += f.Shard(i).InfeasibleHits()
	}
	if got := f.InfeasibleHits(); got != sum || got == 0 {
		t.Fatalf("federation counts %d infeasible hits, shards sum to %d (want equal and positive)", got, sum)
	}
}
