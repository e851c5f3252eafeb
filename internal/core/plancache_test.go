package core

import (
	"errors"
	"math/rand"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/plan"
	"cloudqc/internal/qlib"
)

// cacheStream builds a repeated-template job stream: a handful of
// distinct qlib circuits cycled across many jobs (every job gets its
// own Circuit instance, like real submissions), so the plan cache sees
// genuine cross-job template reuse.
func cacheStream(t *testing.T, poisson, tenants bool, seed int64) []*Job {
	t.Helper()
	templates := []string{"ghz_n127", "qft_n29", "qugan_n39", "cat_n65"}
	rng := rand.New(rand.NewSource(seed))
	arrival := 0.0
	jobs := make([]*Job, 0, 12)
	for i := 0; i < 12; i++ {
		c, err := qlib.Build(templates[i%len(templates)])
		if err != nil {
			t.Fatal(err)
		}
		j := &Job{ID: i, Circuit: c, Arrival: arrival}
		if tenants {
			j.Tenant = i % 3
			j.Priority = 1 << (i % 3)
			j.Deadline = arrival + float64(c.Depth())*(20+rng.Float64()*60)
		}
		jobs = append(jobs, j)
		if poisson {
			arrival += rng.ExpFloat64() * 2000
		}
	}
	return jobs
}

// cacheConfig mirrors liveEquivConfig with the plan cache switchable.
func cacheConfig(seed int64, mode Mode, cacheSize int) (Config, *metrics.Recorder) {
	pCfg := place.DefaultConfig()
	pCfg.Seed = seed
	rec := metrics.NewRecorder(0)
	return Config{
		Cloud:         cloud.NewRandom(10, 0.3, 20, 5, 1),
		Placer:        place.NewCloudQC(pCfg),
		Mode:          mode,
		Seed:          seed,
		Recorder:      rec,
		PlanCacheSize: cacheSize,
	}, rec
}

// TestPlanCacheDifferential is the tentpole's bit-identicality
// guarantee: with the plan cache enabled, every admission mode on batch
// and Poisson repeated-template streams produces exactly the results,
// round/event counts, and recorder series of a cache-disabled run — and
// the cached run must actually hit (a vacuously cold cache would prove
// nothing).
func TestPlanCacheDifferential(t *testing.T) {
	cases := []struct {
		name    string
		mode    Mode
		poisson bool
		tenants bool
	}{
		{"batch-batchmode", BatchMode, false, false},
		{"batch-fifo", FIFOMode, false, false},
		{"batch-edf", EDFMode, false, true},
		{"batch-wfq", WFQMode, false, true},
		{"poisson-batchmode", BatchMode, true, false},
		{"poisson-fifo", FIFOMode, true, false},
		{"poisson-edf", EDFMode, true, true},
		{"poisson-wfq", WFQMode, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				cfgCold, recCold := cacheConfig(seed, tc.mode, -1) // cache disabled
				cold, err := NewLiveController(cfgCold)
				if err != nil {
					t.Fatal(err)
				}
				if s := cold.PlanCacheStats(); s.Enabled {
					t.Fatal("negative PlanCacheSize did not disable the cache")
				}
				want, err := cold.Run(cacheStream(t, tc.poisson, tc.tenants, seed))
				if err != nil {
					t.Fatal(err)
				}

				cfgHot, recHot := cacheConfig(seed, tc.mode, 0) // default-sized cache
				hot, err := NewLiveController(cfgHot)
				if err != nil {
					t.Fatal(err)
				}
				got, err := hot.Run(cacheStream(t, tc.poisson, tc.tenants, seed))
				if err != nil {
					t.Fatal(err)
				}

				if stats := hot.PlanCacheStats(); !stats.Enabled || stats.Hits == 0 {
					t.Fatalf("seed %d: cached run never hit (stats %+v); differential is vacuous",
						seed, stats)
				}
				// Batch streams queue most of their jobs at once, so
				// retries meet capacity states that already failed: the
				// differential must cover remembered verdicts too.
				if !tc.poisson && hot.InfeasibleHits() == 0 {
					t.Fatalf("seed %d: no compile was answered by a remembered verdict; the verdict store went untested", seed)
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
						t.Fatalf("seed %d job %d diverged:\ncold %+v\nhot  %+v",
							seed, w.Job.ID, *w, *g)
					}
					if (w.Placement == nil) != (g.Placement == nil) {
						t.Fatalf("seed %d job %d placement presence diverged", seed, w.Job.ID)
					}
					if w.Placement != nil {
						wq, gq := w.Placement.QubitToQPU, g.Placement.QubitToQPU
						if len(wq) != len(gq) {
							t.Fatalf("seed %d job %d placement widths differ", seed, w.Job.ID)
						}
						for q := range wq {
							if wq[q] != gq[q] {
								t.Fatalf("seed %d job %d qubit %d placed on %d (cold) vs %d (hot)",
									seed, w.Job.ID, q, wq[q], gq[q])
							}
						}
					}
				}
				if cold.RunStats() != hot.RunStats() {
					t.Fatalf("seed %d run stats diverged: cold %+v, hot %+v",
						seed, cold.RunStats(), hot.RunStats())
				}
				sc, sh := recCold.Samples(), recHot.Samples()
				if len(sc) != len(sh) {
					t.Fatalf("seed %d recorder length diverged: %d vs %d", seed, len(sc), len(sh))
				}
				for i := range sc {
					if sc[i] != sh[i] {
						t.Fatalf("seed %d sample %d diverged: %+v vs %+v", seed, i, sc[i], sh[i])
					}
				}
			}
		})
	}
}

// TestPlanCacheLiveDifferential: the live controller with the cache
// reproduces the cache-disabled one-shot Run bit-identically on a
// Poisson repeated-template stream under WFQ — cache, streaming
// submission, and state pooling composed.
func TestPlanCacheLiveDifferential(t *testing.T) {
	const seed = 3
	cfgCold, _ := cacheConfig(seed, WFQMode, -1)
	cold, err := NewLiveController(cfgCold)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Run(cacheStream(t, true, true, seed))
	if err != nil {
		t.Fatal(err)
	}

	cfgHot, _ := cacheConfig(seed, WFQMode, 0)
	lc, err := NewLiveController(cfgHot)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range cacheStream(t, true, true, seed) {
		if err := lc.StepUntil(j.Arrival); err != nil {
			t.Fatal(err)
		}
		if err := lc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	got, err := lc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if stats := lc.PlanCacheStats(); stats.Hits == 0 {
		t.Fatalf("live cached run never hit: %+v", stats)
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Job.ID != w.Job.ID || g.Failed != w.Failed || g.Finished != w.Finished ||
			g.JCT != w.JCT || g.RemoteGates != w.RemoteGates {
			t.Fatalf("job %d diverged:\ncold run %+v\nlive hot %+v", w.Job.ID, *w, *g)
		}
	}
	if cold.RunStats() != lc.RunStats() {
		t.Fatalf("run stats diverged: cold %+v, live %+v", cold.RunStats(), lc.RunStats())
	}
}

// TestPlanCacheCapacityInvalidation: a cached placement is never reused
// once the cloud's free capacity changed — the free-capacity signature
// keys it out — and every hit's placement fits the QPUs it touches.
func TestPlanCacheCapacityInvalidation(t *testing.T) {
	cfg, _ := cacheConfig(1, BatchMode, 0)
	ct, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := qlib.Build("ghz_n127") // spans several 20-qubit QPUs
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{ID: 0, Circuit: c}

	// Cold compile on the idle cloud populates the cache.
	pl1, _, _, hit1, err := ct.compile(job)
	if err != nil {
		t.Fatal(err)
	}
	if s := ct.PlanCacheStats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after cold compile: %+v", s)
	}
	if hit1 {
		t.Fatal("cold compile reported a cache hit")
	}

	// Same template, same idle cloud: must hit with the identical
	// assignment, whose remote DAG contracts exactly the QPU-crossing
	// two-qubit gates.
	pl2, dag2, _, hit2, err := ct.compile(job)
	if err != nil {
		t.Fatal(err)
	}
	if s := ct.PlanCacheStats(); s.Hits != 1 {
		t.Fatalf("identical state did not hit: %+v", s)
	}
	if !hit2 {
		t.Fatal("warm compile did not report a cache hit")
	}
	free := cfg.Cloud.FreeSnapshot()
	_, ok := ct.planCache.Lookup(plan.Key{
		Circuit: c.Fingerprint(),
		Cloud:   cfg.Cloud.Signature(),
		Free:    cloud.FreeSignature(free),
	}, free)
	if !ok {
		t.Fatal("direct lookup missed the warmed entry")
	}
	if want := place.RemoteOps(c, pl2.QubitToQPU); dag2.Len() != want {
		t.Fatalf("remote DAG has %d nodes, %d QPU-crossing gates", dag2.Len(), want)
	}
	for q := range pl1.QubitToQPU {
		if pl1.QubitToQPU[q] != pl2.QubitToQPU[q] {
			t.Fatalf("hit returned a different placement at qubit %d", q)
		}
	}

	// Occupy one QPU the cached placement uses: the signature changes,
	// the stale plan must not be served, and the fresh plan must fit the
	// shrunken capacity.
	used := pl1.UsedQPUs()[0]
	if err := cfg.Cloud.Reserve(used, cfg.Cloud.FreeComputing(used)); err != nil {
		t.Fatal(err)
	}
	pl3, _, _, hit3, err := ct.compile(job)
	if err != nil {
		t.Fatal(err)
	}
	// Hits stay at 2 (the compile hit plus the direct entry inspection
	// above); the capacity change must cost a fresh miss.
	if s := ct.PlanCacheStats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("capacity change did not invalidate: %+v", s)
	}
	if hit3 {
		t.Fatal("capacity-changed compile reported a cache hit")
	}
	if err := pl3.Validate(cfg.Cloud); err != nil {
		t.Fatalf("post-change placement does not fit: %v", err)
	}
	for _, q := range pl3.UsedQPUs() {
		if q == used {
			t.Fatalf("fresh placement uses fully occupied QPU %d", used)
		}
	}
}

// TestPlanCacheEvictionStaysCorrect: a single-entry cache thrashing
// across alternating templates still produces results identical to an
// uncached run — eviction affects performance only.
func TestPlanCacheEvictionStaysCorrect(t *testing.T) {
	const seed = 4
	cfgCold, _ := cacheConfig(seed, FIFOMode, -1)
	cold, err := NewLiveController(cfgCold)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Run(cacheStream(t, true, false, seed))
	if err != nil {
		t.Fatal(err)
	}

	cfgTiny, _ := cacheConfig(seed, FIFOMode, 1)
	tiny, err := NewLiveController(cfgTiny)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tiny.Run(cacheStream(t, true, false, seed))
	if err != nil {
		t.Fatal(err)
	}
	stats := tiny.PlanCacheStats()
	if stats.Capacity != 1 || stats.Evictions == 0 {
		t.Fatalf("single-entry cache never evicted: %+v", stats)
	}
	for i := range want {
		if want[i].Job.ID != got[i].Job.ID || want[i].Failed != got[i].Failed ||
			want[i].Finished != got[i].Finished || want[i].JCT != got[i].JCT {
			t.Fatalf("job %d diverged under eviction pressure", want[i].Job.ID)
		}
	}
}

// TestPlanCacheDisabledForStatefulPlacers: the Random baseline draws
// from a persistent RNG, so memoizing it would change results — the
// controller must refuse to cache it, even when a size is asked for.
func TestPlanCacheDisabledForStatefulPlacers(t *testing.T) {
	ct, err := NewLiveController(Config{
		Cloud:         cloud.NewRandom(10, 0.3, 20, 5, 1),
		Placer:        place.NewRandom(1),
		Seed:          1,
		PlanCacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := ct.PlanCacheStats(); s.Enabled {
		t.Fatalf("cache enabled for the stateful Random placer: %+v", s)
	}
}

// failRecorder is a deterministic placer that records the circuit and
// free snapshot of every call that came back infeasible.
type failRecorder struct {
	place.DeterministicPlacer
	failed []placeFailure
}

type placeFailure struct {
	circuit *circuit.Circuit
	free    []int
}

func (r *failRecorder) Place(cl *cloud.Cloud, c *circuit.Circuit) (*place.Placement, error) {
	pl, err := r.DeterministicPlacer.Place(cl, c)
	var inf *place.ErrInfeasible
	if errors.As(err, &inf) {
		r.failed = append(r.failed, placeFailure{c, cl.FreeSnapshot()})
	}
	return pl, err
}

// TestRememberedVerdictsStayInfeasible: every verdict the store holds
// after a contended run is one a fresh placer, on a fresh cloud set to
// the verdict's snapshot, also finds infeasible. The store records a
// verdict only right after a placer call that failed, so the recorded
// failures cover every entry.
func TestRememberedVerdictsStayInfeasible(t *testing.T) {
	for _, mode := range []Mode{BatchMode, WFQMode} {
		cfg, _ := cacheConfig(1, mode, 0)
		rec := &failRecorder{DeterministicPlacer: cfg.Placer.(place.DeterministicPlacer)}
		cfg.Placer = rec
		lc, err := NewLiveController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lc.Run(cacheStream(t, false, mode == WFQMode, 1)); err != nil {
			t.Fatal(err)
		}
		if lc.InfeasibleHits() == 0 {
			t.Fatalf("%v: no remembered verdict was used", mode)
		}
		checked := map[plan.Key]bool{}
		for _, f := range rec.failed {
			key := plan.Key{Circuit: f.circuit.Fingerprint(), Cloud: cfg.Cloud.Signature(), Free: cloud.FreeSignature(f.free)}
			v, ok := lc.verdicts.Lookup(key, f.free)
			if !ok {
				continue
			}
			checked[key] = true
			if v == nil {
				t.Fatalf("%v: nil remembered verdict", mode)
			}
			var inf *place.ErrInfeasible
			fresh := cloud.NewRandom(10, 0.3, 20, 5, 1) // cacheConfig's cloud
			for q, n := range f.free {
				if err := fresh.Reserve(q, fresh.QPU(q).Computing-n); err != nil {
					t.Fatal(err)
				}
			}
			pCfg := place.DefaultConfig()
			pCfg.Seed = 1
			if pl, err := place.NewCloudQC(pCfg).Place(fresh, f.circuit); !errors.As(err, &inf) {
				t.Fatalf("%v: %s under remembered snapshot %v: fresh placer gave %v, %v",
					mode, f.circuit.Name, f.free, pl, err)
			}
		}
		if len(checked) == 0 || len(checked) != lc.verdicts.Len() {
			t.Fatalf("%v: checked %d of %d remembered verdicts", mode, len(checked), lc.verdicts.Len())
		}
	}
}

// TestVerdictNeedsSameSnapshot: a verdict stored under a job's key but
// for another snapshot (as a free-signature collision would leave it)
// is a miss that runs the placer, never a wrong infeasible answer. A
// verdict for the same snapshot is served, naming the asking job's
// circuit.
func TestVerdictNeedsSameSnapshot(t *testing.T) {
	cfg, _ := cacheConfig(1, BatchMode, 0)
	lc, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{ID: 0, Circuit: qlib.MustBuild("qugan_n39")}
	free := cfg.Cloud.FreeSnapshot()
	key := plan.Key{Circuit: job.Circuit.Fingerprint(), Cloud: cfg.Cloud.Signature(), Free: cloud.FreeSignature(free)}
	other := make([]int, len(free)) // a full cloud, forced under the idle cloud's key
	verdict := &place.ErrInfeasible{Circuit: "other", Need: 39, Free: 0}
	lc.verdicts.Insert(key, other, verdict)
	pl, _, _, _, err := lc.compile(job)
	if err != nil || pl == nil {
		t.Fatalf("colliding verdict served: %v", err)
	}
	if n := lc.InfeasibleHits(); n != 0 {
		t.Fatalf("%d infeasible hits on a snapshot mismatch", n)
	}

	// The same verdict under the snapshot it names is served, with no
	// placer run and no plan-cache hit.
	if err := cfg.Cloud.Reserve(0, 1); err != nil {
		t.Fatal(err)
	}
	free = cfg.Cloud.FreeSnapshot()
	key.Free = cloud.FreeSignature(free)
	lc.verdicts.Insert(key, free, verdict)
	_, _, _, hit, err := lc.compile(job)
	var inf *place.ErrInfeasible
	if !errors.As(err, &inf) || hit {
		t.Fatalf("remembered verdict not served: hit %v, err %v", hit, err)
	}
	if inf.Circuit != job.Circuit.Name || inf.Need != 39 || lc.InfeasibleHits() != 1 {
		t.Fatalf("served verdict %+v after %d hits", *inf, lc.InfeasibleHits())
	}
	if verdict.Circuit != "other" {
		t.Fatal("serving a verdict modified the remembered error")
	}
}
