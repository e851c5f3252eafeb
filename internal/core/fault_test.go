// Fault-injection tests live in the external test package for the same
// reason the preemption tests do: the off-path differential drives a
// 1-shard Federation, and internal/fed imports core.
package core_test

import (
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/fed"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/qlib"
	"cloudqc/internal/trace"
)

// faultCloud is the outage tests' cluster: 7 QPUs x 20 computing qubits
// are exactly enough that GHZ-127 must span all seven, so downing ANY
// QPU is guaranteed to evict it.
func faultCloud() *cloud.Cloud { return cloud.NewRandom(7, 0.3, 20, 5, 1) }

// k4Cloud is the route-around tests' cluster: a complete 4-QPU graph
// where killing the three edges among QPUs {0,1,2} leaves QPU 3 as a
// live relay between any pair — every dead shortest path has exactly
// one detour, through the hub.
func k4Cloud() *cloud.Cloud {
	var edges []graph.Edge
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	return cloud.New(graph.Build(4, edges), 20, 5)
}

// deadTriangle kills the three edges among QPUs {0,1,2} for the whole
// run. GHZ-70 over 4x20 qubits must span all four QPUs, and its CX
// chain cuts between adjacent fragments; the hub hosts at most one
// fragment, so at least one cut crosses a dead direct edge — the
// route-around (or retry-exhaustion) path is guaranteed to engage.
func deadTriangle() []fault.Event {
	var evs []fault.Event
	for u := 0; u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			evs = append(evs, fault.Event{
				Kind: fault.KindLinkDegrade, U: u, V: v, Scale: 0, From: 0, To: 1e9,
			})
		}
	}
	return evs
}

func faultConfig(cl *cloud.Cloud, plan *fault.Plan, tr *trace.Recorder) core.Config {
	cfg := preemptConfig(core.PreemptOff, core.FIFOMode)
	cfg.Cloud = cl
	cfg.Faults = plan
	cfg.Trace = tr
	return cfg
}

// TestFaultOffDifferential is the tentpole's hard guarantee: with no
// FaultPlan every fault hook stays dormant, so Run, LiveController, and
// a 1-shard Federation (whose code paths all carry the hooks) agree
// bit-for-bit on every observable and count zero fault activity.
func TestFaultOffDifferential(t *testing.T) {
	cases := []struct {
		name    string
		poisson bool
		mode    core.Mode
	}{
		{"batch-wfq", false, core.WFQMode},
		{"poisson-fifo", true, core.FIFOMode},
		{"poisson-edf", true, core.EDFMode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(3)
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
			if ref.FaultStats() != (fault.Stats{}) {
				t.Fatalf("planless run counted faults: %+v", ref.FaultStats())
			}

			jobsB := preemptStream(t, tc.poisson, seed)
			cfgB, recB := preemptEquivConfig(seed, tc.mode)
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
			if lc.FaultStats() != (fault.Stats{}) {
				t.Fatalf("planless live controller counted faults: %+v", lc.FaultStats())
			}

			jobsC := preemptStream(t, tc.poisson, seed)
			cfgC, recC := preemptEquivConfig(seed, tc.mode)
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
			if f.FaultStats() != (fault.Stats{}) {
				t.Fatalf("planless federation counted faults: %+v", f.FaultStats())
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

// runOutage runs one GHZ-127 job through a mid-run outage of QPU 0 and
// returns its result and the injector counters.
func runOutage(t *testing.T, recovery string, tr *trace.Recorder) (*core.JobResult, fault.Stats) {
	t.Helper()
	plan := &fault.Plan{
		Recovery: recovery,
		Events:   []fault.Event{{Kind: fault.KindQPUOutage, QPU: 0, From: 50, To: 3000}},
	}
	ct, err := core.NewLiveController(faultConfig(faultCloud(), plan, tr))
	if err != nil {
		t.Fatal(err)
	}
	results, err := ct.Run([]*core.Job{{ID: 0, Circuit: qlib.GHZ(127), Arrival: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Job.ID != 0 {
		t.Fatalf("results %+v", results)
	}
	return results[0], ct.FaultStats()
}

// TestFaultOutageRescue drives the whole outage lifecycle: the job is
// running when its QPU goes down, checkpoints off it, waits out the
// outage (held capacity leaves no room for 127 qubits on 6 QPUs), and
// resumes to completion under its original identity — and the whole
// faulted run is bit-reproducible.
func TestFaultOutageRescue(t *testing.T) {
	tr := trace.New()
	res, fs := runOutage(t, fault.RecoveryRescue, tr)
	if res.Failed {
		t.Fatalf("rescued job failed: %+v", *res)
	}
	if fs.QPUOutages != 1 || fs.RescuedOutage != 1 || fs.FailedOutage != 0 {
		t.Fatalf("outage stats %+v", fs)
	}
	// The outage held all free capacity on QPU 0 until t=3000; the job
	// cannot re-place before the QPU returns.
	if res.Finished <= 3000 {
		t.Fatalf("job finished at %v, before the outage ended", res.Finished)
	}
	if res.JCT != res.Finished {
		t.Fatalf("JCT %v != Finished %v with arrival 0", res.JCT, res.Finished)
	}
	jt := tr.Get(0)
	if jt == nil || len(jt.Faults) == 0 {
		t.Fatal("no fault span on the victim's trace")
	}
	if jt.Faults[0].Kind != fault.KindQPUOutage || jt.Faults[0].At != 50 {
		t.Fatalf("fault span %+v", jt.Faults[0])
	}
	// Bit-reproducibility: an identical configuration replays the
	// identical faulted run.
	res2, fs2 := runOutage(t, fault.RecoveryRescue, nil)
	if fs2 != fs || res2.Finished != res.Finished || res2.JCT != res.JCT ||
		res2.WaitTime != res.WaitTime || res2.RemoteGates != res.RemoteGates {
		t.Fatalf("faulted run not reproducible:\nfirst  %+v %+v\nsecond %+v %+v", *res, fs, *res2, fs2)
	}
}

// TestFaultOutageNoRecovery: under the no-recovery ablation the same
// outage fails the resident job outright.
func TestFaultOutageNoRecovery(t *testing.T) {
	res, fs := runOutage(t, fault.RecoveryNone, nil)
	if !res.Failed {
		t.Fatalf("no-recovery victim survived: %+v", *res)
	}
	if fs.QPUOutages != 1 || fs.FailedOutage != 1 || fs.RescuedOutage != 0 {
		t.Fatalf("outage stats %+v", fs)
	}
}

// TestFaultRouteAround: with every edge among QPUs {0,1,2} dead, remote
// gates crossing them re-path through the hub QPU 3 and the job still
// completes; without route-around the same faults burn the job's retry
// budget and it fails cleanly.
func TestFaultRouteAround(t *testing.T) {
	run := func(reroute bool, budget int) (*core.JobResult, fault.Stats) {
		plan := &fault.Plan{RouteAround: reroute, RetryBudget: budget, Events: deadTriangle()}
		ct, err := core.NewLiveController(faultConfig(k4Cloud(), plan, nil))
		if err != nil {
			t.Fatal(err)
		}
		results, err := ct.Run([]*core.Job{{ID: 0, Circuit: qlib.GHZ(70), Arrival: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return results[0], ct.FaultStats()
	}

	res, fs := run(true, 0)
	if res.Failed {
		t.Fatalf("route-around job failed: %+v (stats %+v)", *res, fs)
	}
	if fs.Reroutes == 0 {
		t.Fatalf("no reroute despite a guaranteed dead cut: %+v", fs)
	}
	if fs.RetryExhausted != 0 {
		t.Fatalf("route-around run exhausted a budget: %+v", fs)
	}

	res, fs = run(false, 3)
	if !res.Failed {
		t.Fatalf("dead links with no route-around and budget 3, yet job survived (stats %+v)", fs)
	}
	if fs.RetryExhausted != 1 || fs.Retries < 3 || fs.Reroutes != 0 {
		t.Fatalf("retry stats %+v", fs)
	}
}

// TestFaultLiveInject covers the admin-injection path: a live outage is
// clamped to virtual now and rescues the resident job; malformed,
// expired, out-of-range, and federation-tier events are rejected.
func TestFaultLiveInject(t *testing.T) {
	cfg := faultConfig(faultCloud(), nil, nil)
	lc, err := core.NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&core.Job{ID: 0, Circuit: qlib.GHZ(127), Arrival: 0}); err != nil {
		t.Fatal(err)
	}
	if err := lc.StepUntil(50); err != nil {
		t.Fatal(err)
	}
	for _, e := range []fault.Event{
		{Kind: "bogus", From: 100, To: 200},
		{Kind: fault.KindShardDrain, From: 100},
		{Kind: fault.KindQPUOutage, QPU: 99, From: 100, To: 200},
		{Kind: fault.KindLinkDegrade, U: 0, V: 99, Scale: 0.5, From: 100, To: 200},
		{Kind: fault.KindQPUOutage, QPU: 0, From: 0, To: 10}, // interval already past now=50
	} {
		if err := lc.InjectFault(e); err == nil {
			t.Fatalf("bad injection accepted: %+v", e)
		}
	}
	// From 0 clamps to now=50; the resident job is evicted and rescued.
	if err := lc.InjectFault(fault.Event{Kind: fault.KindQPUOutage, QPU: 0, From: 0, To: 3000}); err != nil {
		t.Fatal(err)
	}
	results, err := lc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Failed {
		t.Fatalf("results %+v", results)
	}
	fs := lc.FaultStats()
	if fs.QPUOutages != 1 || fs.RescuedOutage != 1 {
		t.Fatalf("live-injection stats %+v", fs)
	}
	if err := lc.InjectFault(fault.Event{Kind: fault.KindQPUOutage, QPU: 0, From: 0, To: 1e9}); err == nil {
		t.Fatal("injection into a drained controller accepted")
	}
}

// TestFaultConfigValidation: NewLiveController range-checks the plan against
// the cloud at construction time.
func TestFaultConfigValidation(t *testing.T) {
	for name, plan := range map[string]*fault.Plan{
		"shard-drain": {Events: []fault.Event{{Kind: fault.KindShardDrain, From: 0}}},
		"qpu-range":   {Events: []fault.Event{{Kind: fault.KindQPUOutage, QPU: 64, From: 0, To: 10}}},
		"no-edge":     {Events: []fault.Event{{Kind: fault.KindLinkDegrade, U: 0, V: 64, Scale: 0.5, From: 0, To: 10}}},
		"recovery":    {Recovery: "pray", Events: nil},
	} {
		if _, err := core.NewLiveController(faultConfig(faultCloud(), plan, nil)); err == nil {
			t.Fatalf("%s: invalid plan accepted", name)
		}
	}
}
