// Preemption tests live in an external test package: the off-path
// differential drives a 1-shard Federation, and internal/fed imports
// core, so an in-package test would cycle. Everything under test is
// exported API.
package core_test

import (
	"math/rand"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
)

// preemptCloud is the functional tests' cluster: 8 QPUs x 20 computing
// qubits cannot co-run two 127-qubit jobs, so a second GHZ-127 must
// either wait for run-to-completion or preempt.
func preemptCloud() *cloud.Cloud { return cloud.NewRandom(8, 0.3, 20, 5, 1) }

func preemptConfig(policy core.PreemptPolicy, mode core.Mode) core.Config {
	pCfg := place.DefaultConfig()
	pCfg.Seed = 7
	return core.Config{
		Cloud:   preemptCloud(),
		Placer:  place.NewCloudQC(pCfg),
		Mode:    mode,
		Seed:    7,
		Preempt: policy,
	}
}

// preemptStream mirrors live_test.go's liveStream for the external test
// package: a deterministic 8-job qlib stream, batch or Poisson, with
// tenants, weights, and depth-scaled deadlines.
func preemptStream(t *testing.T, poisson bool, seed int64) []*core.Job {
	t.Helper()
	names := []string{"qugan_n39", "qft_n29", "ghz_n127", "qugan_n71", "ising_n66", "qft_n63", "cat_n65", "qft_n29"}
	rng := rand.New(rand.NewSource(seed))
	arrival := 0.0
	jobs := make([]*core.Job, 0, len(names))
	for i, name := range names {
		c := mustBuild(t, name)
		jobs = append(jobs, &core.Job{
			ID: i, Circuit: c, Arrival: arrival,
			Tenant:   i % 3,
			Priority: 1 << (i % 3),
			Deadline: arrival + float64(c.Depth())*(20+rng.Float64()*60),
		})
		if poisson {
			arrival += rng.ExpFloat64() * 1500
		}
	}
	return jobs
}

// preemptEquivConfig mirrors live_test.go's liveEquivConfig: the
// differential cloud plus an unthinned recorder.
func preemptEquivConfig(seed int64, mode core.Mode) (core.Config, *metrics.Recorder) {
	pCfg := place.DefaultConfig()
	pCfg.Seed = seed
	rec := metrics.NewRecorder(0)
	return core.Config{
		Cloud:    cloud.NewRandom(10, 0.3, 20, 5, 1),
		Placer:   place.NewCloudQC(pCfg),
		Mode:     mode,
		Seed:     seed,
		Recorder: rec,
	}, rec
}

func mustBuild(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	c, err := qlib.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParsePreempt(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want core.PreemptPolicy
	}{
		{"", core.PreemptOff},
		{"off", core.PreemptOff},
		{"rescue", core.PreemptRescue},
		{"priority", core.PreemptPriority},
	} {
		got, err := core.ParsePreempt(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePreempt(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := core.ParsePreempt("bogus"); err == nil {
		t.Fatal("ParsePreempt(bogus) succeeded")
	}
	if _, err := core.NewLiveController(core.Config{Cloud: preemptCloud(), Preempt: core.PreemptPolicy(9)}); err == nil {
		t.Fatal("NewLiveController accepted an out-of-range preemption policy")
	}
}

// TestPreemptRescueFunctional drives the whole lifecycle: a long job
// owns the cloud, a deadline-carrying job arrives, rescue preempts the
// incumbent at a round boundary, the trigger runs, and the victim
// resumes from its checkpoint under its original identity.
func TestPreemptRescueFunctional(t *testing.T) {
	ct, err := core.NewLiveController(preemptConfig(core.PreemptRescue, core.EDFMode))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*core.Job{
		{ID: 0, Circuit: qlib.GHZ(127), Arrival: 0},
		{ID: 1, Circuit: qlib.GHZ(127), Arrival: 10, Deadline: 1e9},
	}
	results, err := ct.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	ps := ct.PreemptStats()
	if ps.Preemptions == 0 {
		t.Fatalf("rescue never fired: %+v", ps)
	}
	if ps.Resumes != ps.Preemptions {
		t.Fatalf("every preempted job must resume by drain: %+v", ps)
	}
	if ps.RescuedDeadlines != 1 {
		t.Fatalf("rescued deadlines = %d, want 1 (%+v)", ps.RescuedDeadlines, ps)
	}
	for _, r := range results {
		if r.Failed {
			t.Fatalf("job %d failed: %+v", r.Job.ID, *r)
		}
	}
	r0, r1 := results[0], results[1]
	if r0.Job.ID != 0 || r1.Job.ID != 1 {
		t.Fatalf("ids across preemption: got %d, %d", r0.Job.ID, r1.Job.ID)
	}
	// The victim yielded: the deadline job overtakes it.
	if r1.Finished >= r0.Finished {
		t.Fatalf("trigger finished at %v, after its victim's %v", r1.Finished, r0.Finished)
	}
	if r1.Finished > jobs[1].Deadline {
		t.Fatalf("trigger missed the deadline it preempted for: %v > %v", r1.Finished, jobs[1].Deadline)
	}
	// Satellite guarantee: a preempted-and-resumed job's WaitTime is its
	// admission wait only. Job 0 was placed at t=0; its later re-placement
	// must stretch JCT, not wait.
	if r0.PlacedAt != 0 || r0.WaitTime != 0 {
		t.Fatalf("victim PlacedAt=%v WaitTime=%v, want 0/0 (admission wait only)", r0.PlacedAt, r0.WaitTime)
	}
	if r0.JCT != r0.Finished {
		t.Fatalf("victim JCT %v != Finished %v with arrival 0", r0.JCT, r0.Finished)
	}
}

// TestPreemptPriorityFunctional: under the priority policy a
// heavyweight tenant displaces a lightweight one with no deadlines in
// sight.
func TestPreemptPriorityFunctional(t *testing.T) {
	ct, err := core.NewLiveController(preemptConfig(core.PreemptPriority, core.FIFOMode))
	if err != nil {
		t.Fatal(err)
	}
	results, err := ct.Run([]*core.Job{
		{ID: 0, Circuit: qlib.GHZ(127), Arrival: 0, Tenant: 0, Priority: 1},
		{ID: 1, Circuit: qlib.GHZ(127), Arrival: 10, Tenant: 1, Priority: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := ct.PreemptStats()
	if ps.Preemptions == 0 || ps.Resumes != ps.Preemptions {
		t.Fatalf("priority preemption stats %+v", ps)
	}
	if ps.RescuedDeadlines != 0 {
		t.Fatalf("no deadlines in play, yet rescued = %d", ps.RescuedDeadlines)
	}
	if results[0].Failed || results[1].Failed {
		t.Fatalf("jobs failed: %+v / %+v", *results[0], *results[1])
	}
	if results[1].Finished >= results[0].Finished {
		t.Fatalf("heavy job finished at %v, after the light victim's %v",
			results[1].Finished, results[0].Finished)
	}
}

// TestPreemptionPlacesTrigger: the commit step places the trigger
// itself. Under EDF admission a victim whose deadline precedes its
// trigger's sorts first, so a same-instant admission pass would hand the
// victim back the capacity freed for the trigger and preemption would
// thrash until the victim finished. At every instant with a preemption,
// some job other than that instant's victims must start running.
func TestPreemptionPlacesTrigger(t *testing.T) {
	type instant struct {
		victims map[int]bool
		started []int
	}
	var order []float64
	byTime := map[float64]*instant{}
	at := func(t float64) *instant {
		in := byTime[t]
		if in == nil {
			in = &instant{victims: map[int]bool{}}
			byTime[t] = in
			order = append(order, t)
		}
		return in
	}
	cfg := preemptConfig(core.PreemptPriority, core.EDFMode)
	cfg.OnTransition = func(tr core.Transition) {
		switch {
		case tr.Reason == core.ReasonPreempted:
			at(tr.At).victims[tr.JobID] = true
		case tr.To == core.StatusRunning:
			in := at(tr.At)
			in.started = append(in.started, tr.JobID)
		}
	}
	ct, err := core.NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Run([]*core.Job{
		{ID: 0, Circuit: qlib.GHZ(127), Arrival: 0, Tenant: 0, Priority: 1, Deadline: 1e6},
		{ID: 1, Circuit: qlib.GHZ(127), Arrival: 10, Tenant: 1, Priority: 4, Deadline: 1e9},
	}); err != nil {
		t.Fatal(err)
	}
	if ps := ct.PreemptStats(); ps.Preemptions != 1 || ps.Resumes != 1 {
		t.Errorf("preemption stats %+v, want exactly one preemption and resume", ps)
	}
	preempted := 0
	for _, tm := range order {
		in := byTime[tm]
		if len(in.victims) == 0 {
			continue
		}
		preempted++
		other := false
		for _, id := range in.started {
			other = other || !in.victims[id]
		}
		if !other {
			t.Fatalf("t=%v: victims %v preempted, but only %v started running", tm, in.victims, in.started)
		}
	}
	if preempted == 0 {
		t.Fatal("setup: priority preemption never fired")
	}
}

// TestResumeHitsPlanCache pins the elastic re-placement fast path: the
// victim's resume recompiles at a free state its first admission
// already populated, so it is a plan-cache hit. The two circuits are
// distinct, so without preemption this run has zero cross-job cache
// traffic.
func TestResumeHitsPlanCache(t *testing.T) {
	ct, err := core.NewLiveController(preemptConfig(core.PreemptRescue, core.EDFMode))
	if err != nil {
		t.Fatal(err)
	}
	results, err := ct.Run([]*core.Job{
		{ID: 0, Circuit: qlib.GHZ(127), Arrival: 0},
		{ID: 1, Circuit: mustBuild(t, "qft_n63"), Arrival: 10, Deadline: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ct.PreemptStats().Preemptions == 0 {
		t.Fatal("setup: rescue never fired")
	}
	for _, r := range results {
		if r.Failed {
			t.Fatalf("job %d failed", r.Job.ID)
		}
	}
	if s := ct.PlanCacheStats(); s.Hits == 0 {
		t.Fatalf("resume path missed the plan cache entirely: %+v", s)
	}
}

// TestPreemptionOffDifferential is the hard guarantee the refactor
// rides on: with preemption disabled the controller is bit-identical to
// the pre-preemption code on every observable. Run, LiveController, and
// a 1-shard Federation each replay batch and Poisson streams under
// FIFO, EDF, and WFQ; per-job results, run statistics, recorder series,
// and preemption counters must agree exactly.
func TestPreemptionOffDifferential(t *testing.T) {
	cases := []struct {
		name    string
		poisson bool
		mode    core.Mode
	}{
		{"batch-fifo", false, core.FIFOMode},
		{"batch-edf", false, core.EDFMode},
		{"batch-wfq", false, core.WFQMode},
		{"poisson-fifo", true, core.FIFOMode},
		{"poisson-edf", true, core.EDFMode},
		{"poisson-wfq", true, core.WFQMode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(1)
			// Reference: one-shot Run with the zero-value (off) policy,
			// exactly the configuration every pre-preemption caller built.
			jobsA := preemptStream(t, tc.poisson, seed)
			cfgA, recA := preemptEquivConfig(seed, tc.mode)
			ref, err := core.NewLiveController(cfgA)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(jobsA)
			if err != nil {
				t.Fatal(err)
			}
			if ref.PreemptStats() != (core.PreemptStats{}) {
				t.Fatalf("off-policy run counted preemptions: %+v", ref.PreemptStats())
			}

			// Live controller with PreemptOff spelled explicitly.
			jobsB := preemptStream(t, tc.poisson, seed)
			cfgB, recB := preemptEquivConfig(seed, tc.mode)
			cfgB.Preempt = core.PreemptOff
			lc, err := core.NewLiveController(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobsB {
				if err := lc.StepUntil(j.Arrival); err != nil {
					t.Fatal(err)
				}
				if err := lc.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			gotLive, err := lc.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if lc.PreemptStats() != (core.PreemptStats{}) {
				t.Fatalf("off-policy live controller counted preemptions: %+v", lc.PreemptStats())
			}

			// 1-shard federation with PreemptOff spelled explicitly.
			jobsC := preemptStream(t, tc.poisson, seed)
			cfgC, recC := preemptEquivConfig(seed, tc.mode)
			cfgC.Preempt = core.PreemptOff
			fedCloud := cfgC.Cloud
			cfgC.Cloud, cfgC.Recorder = nil, nil
			f, err := fed.New(fed.Config{
				Shard:     cfgC,
				Clouds:    []*cloud.Cloud{fedCloud},
				Recorders: []*metrics.Recorder{recC},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobsC {
				if err := f.StepUntil(j.Arrival); err != nil {
					t.Fatal(err)
				}
				if err := f.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			gotFed, err := f.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if f.PreemptStats() != (core.PreemptStats{}) {
				t.Fatalf("off-policy federation counted preemptions: %+v", f.PreemptStats())
			}

			for name, got := range map[string][]*core.JobResult{"live": gotLive, "fed": gotFed} {
				if len(got) != len(want) {
					t.Fatalf("%s result count %d vs %d", name, len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if g.Job.ID != w.Job.ID || g.Failed != w.Failed ||
						g.PlacedAt != w.PlacedAt || g.Finished != w.Finished ||
						g.JCT != w.JCT || g.WaitTime != w.WaitTime ||
						g.RemoteGates != w.RemoteGates {
						t.Fatalf("%s job %d diverged:\nref %+v\ngot %+v", name, w.Job.ID, *w, *g)
					}
				}
			}
			if ref.RunStats() != lc.RunStats() || ref.RunStats() != f.RunStats() {
				t.Fatalf("run stats diverged: ref %+v live %+v fed %+v",
					ref.RunStats(), lc.RunStats(), f.RunStats())
			}
			sa, sb, sc := recA.Samples(), recB.Samples(), recC.Samples()
			if len(sa) != len(sb) || len(sa) != len(sc) {
				t.Fatalf("recorder lengths diverged: %d / %d / %d", len(sa), len(sb), len(sc))
			}
			for i := range sa {
				if sa[i] != sb[i] || sa[i] != sc[i] {
					t.Fatalf("sample %d diverged: ref %+v live %+v fed %+v", i, sa[i], sb[i], sc[i])
				}
			}
		})
	}
}
