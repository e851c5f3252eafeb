package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/fault"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
)

// liveStream builds a deterministic job stream for the differential
// tests: batch (all arrivals 0) or Poisson arrivals, optionally with
// tenants, weights, and depth-scaled deadlines. Streams are rebuilt
// per run so the reference and live controllers never share Job
// pointers.
func liveStream(t *testing.T, poisson, tenants bool, seed int64) []*Job {
	t.Helper()
	names := []string{"qugan_n39", "qft_n29", "ghz_n127", "qugan_n71", "ising_n66", "qft_n63", "cat_n65", "qft_n29"}
	rng := rand.New(rand.NewSource(seed))
	arrival := 0.0
	jobs := make([]*Job, 0, len(names))
	for i, name := range names {
		c, err := qlib.Build(name)
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
			arrival += rng.ExpFloat64() * 1500
		}
	}
	return jobs
}

// liveEquivConfig mirrors equivConfig with an unthinned recorder so the
// differential test can compare the full utilization series too.
func liveEquivConfig(seed int64, mode Mode) (Config, *metrics.Recorder) {
	pCfg := place.DefaultConfig()
	pCfg.Seed = seed
	rec := metrics.NewRecorder(0)
	return Config{
		Cloud:    cloud.NewRandom(10, 0.3, 20, 5, 1),
		Placer:   place.NewCloudQC(pCfg),
		Mode:     mode,
		Seed:     seed,
		Recorder: rec,
	}, rec
}

// TestLiveControllerMatchesRun is the live subsystem's differential
// guarantee: submitting a workload's jobs at their arrival times
// through a LiveController — Submit before the clock passes each
// arrival, with arbitrary idle steps in between — reproduces the
// one-shot Run bit-identically: same per-job results, same round and
// event counts, same recorder series, same SLO aggregates.
func TestLiveControllerMatchesRun(t *testing.T) {
	cases := []struct {
		name             string
		poisson, tenants bool
		mode             Mode
		// outage shifts every arrival by +500 CX and downs QPU 0 over
		// [0, 100): the first event is a fault, not an arrival, so both
		// paths must agree on whether the horizon starts idle.
		outage bool
	}{
		{"batch-fifo", false, false, FIFOMode, false},
		{"batch-wfq", false, true, WFQMode, false},
		{"poisson-fifo", true, false, FIFOMode, false},
		{"poisson-wfq", true, true, WFQMode, false},
		{"poisson-batchmode", true, false, BatchMode, false},
		{"poisson-edf", true, true, EDFMode, false},
		{"poisson-fifo-outage-t0", true, false, FIFOMode, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				jobsA := liveStream(t, tc.poisson, tc.tenants, seed)
				jobsB := liveStream(t, tc.poisson, tc.tenants, seed)
				var faults *fault.Plan
				if tc.outage {
					for i := range jobsA {
						jobsA[i].Arrival += 500
						jobsB[i].Arrival += 500
					}
					faults = &fault.Plan{Events: []fault.Event{{Kind: fault.KindQPUOutage, QPU: 0, From: 0, To: 100}}}
				}

				cfgA, recA := liveEquivConfig(seed, tc.mode)
				cfgA.Faults = faults
				ref, err := NewLiveController(cfgA)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Run(jobsA)
				if err != nil {
					t.Fatal(err)
				}

				cfgB, recB := liveEquivConfig(seed, tc.mode)
				cfgB.Faults = faults
				lc, err := NewLiveController(cfgB)
				if err != nil {
					t.Fatal(err)
				}
				for i, j := range jobsB {
					if i > 0 && j.Arrival > jobsB[i-1].Arrival {
						// An idle step strictly between arrivals must not
						// perturb the run.
						if err := lc.StepUntil((jobsB[i-1].Arrival + j.Arrival) / 2); err != nil {
							t.Fatal(err)
						}
					}
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

				if len(got) != len(want) {
					t.Fatalf("result count %d vs %d", len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if g.Job.ID != w.Job.ID || g.Failed != w.Failed ||
						g.PlacedAt != w.PlacedAt || g.Finished != w.Finished ||
						g.JCT != w.JCT || g.WaitTime != w.WaitTime ||
						g.RemoteGates != w.RemoteGates {
						t.Fatalf("seed %d job %d diverged:\none-shot %+v\nlive     %+v",
							seed, w.Job.ID, *w, *g)
					}
				}
				if ref.RunStats() != lc.RunStats() {
					t.Fatalf("seed %d run stats diverged: one-shot %+v, live %+v",
						seed, ref.RunStats(), lc.RunStats())
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
					sw := metrics.AggregateSLO(Outcomes(want))
					sg := metrics.AggregateSLO(Outcomes(got))
					if sw.Attainment != sg.Attainment || sw.Fairness != sg.Fairness ||
						len(sw.PerTenant) != len(sg.PerTenant) {
						t.Fatalf("seed %d SLO stats diverged:\none-shot %+v\nlive     %+v", seed, sw, sg)
					}
				}
			}
		})
	}
}

// TestLiveSubmitMidRun is what Run cannot do at all: jobs injected
// after the simulation started, while earlier jobs are still
// executing, all complete.
func TestLiveSubmitMidRun(t *testing.T) {
	cfg, _ := liveEquivConfig(3, BatchMode)
	lc, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := qlib.Build("ghz_n127")
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&Job{ID: 0, Circuit: c}); err != nil {
		t.Fatal(err)
	}
	if err := lc.StepUntil(5); err != nil {
		t.Fatal(err)
	}
	if s := lc.Status(0); s != StatusRunning {
		t.Fatalf("job 0 status = %v at t=5, want running", s)
	}
	// Inject a second job mid-flight; Arrival 0 in the past clamps the
	// arrival event to now but keeps the caller's JCT stamp.
	if err := lc.Submit(&Job{ID: 1, Circuit: c, Arrival: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := lc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Failed || r.Finished <= 0 {
			t.Fatalf("job %d did not complete: %+v", r.Job.ID, *r)
		}
	}
	if res[1].PlacedAt < 5 {
		t.Fatalf("job 1 placed at %v, before its submission instant 5", res[1].PlacedAt)
	}
	if res[1].JCT != res[1].Finished-2 {
		t.Fatalf("job 1 JCT %v not charged from its Arrival stamp 2", res[1].JCT)
	}
}

// TestLiveStatusLifecycle walks one oversubscribed pair of jobs through
// pending -> queued -> running -> completed.
func TestLiveStatusLifecycle(t *testing.T) {
	pCfg := place.DefaultConfig()
	pCfg.Seed = 5
	lc, err := NewLiveController(Config{
		// 8 QPUs x 20 computing: two 127-qubit jobs cannot run together.
		Cloud:  cloud.NewRandom(8, 0.3, 20, 5, 1),
		Placer: place.NewCloudQC(pCfg),
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := qlib.Build("ghz_n127")
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&Job{ID: 0, Circuit: c}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&Job{ID: 1, Circuit: c, Arrival: 10}); err != nil {
		t.Fatal(err)
	}
	if s := lc.Status(1); s != StatusPending {
		t.Fatalf("job 1 status = %v before its arrival, want pending", s)
	}
	if err := lc.StepUntil(11); err != nil {
		t.Fatal(err)
	}
	if s := lc.Status(0); s != StatusRunning {
		t.Fatalf("job 0 status = %v at t=11, want running", s)
	}
	if s := lc.Status(1); s != StatusQueued {
		t.Fatalf("job 1 status = %v at t=11, want queued", s)
	}
	snap := lc.Snapshot()
	if snap.Active != 1 || snap.Queued != 1 || snap.Pending != 0 {
		t.Fatalf("snapshot %+v, want 1 active + 1 queued", snap)
	}
	if snap.Utilization <= 0 || snap.Utilization > 1 {
		t.Fatalf("utilization %v out of range", snap.Utilization)
	}
	if _, err := lc.Drain(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id <= 1; id++ {
		if s := lc.Status(id); s != StatusCompleted {
			t.Fatalf("job %d status = %v after drain, want completed", id, s)
		}
	}
	if s := lc.Status(99); s != StatusUnknown {
		t.Fatalf("unknown job status = %v", s)
	}
}

// TestLiveUnplaceableJobFailsNotFatal: a job the placer can never fit
// fails, and the controller keeps serving later jobs — the one-shot
// Run aborts the whole batch here.
func TestLiveUnplaceableJobFailsNotFatal(t *testing.T) {
	small := cloud.New(graph.Path(3), 10, 5)
	pCfg := place.DefaultConfig()
	pCfg.Seed = 26
	lc, err := NewLiveController(Config{Cloud: small, Placer: place.NewCloudQC(pCfg), Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	big := qlib.GHZ(28) // 28 <= 30 total capacity, but per-QPU fragmentation can defeat placement
	if err := lc.Submit(&Job{ID: 0, Circuit: big}); err != nil {
		t.Fatal(err)
	}
	if err := lc.StepUntil(1e6); err != nil {
		t.Fatal(err)
	}
	st := lc.Status(0)
	if st != StatusFailed && st != StatusCompleted {
		t.Fatalf("oversized job status = %v, want failed or completed", st)
	}
	// The controller must survive either way: a small follow-up job
	// completes.
	if err := lc.Submit(&Job{ID: 1, Circuit: qlib.GHZ(4), Arrival: lc.Now()}); err != nil {
		t.Fatal(err)
	}
	res, err := lc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Failed {
		t.Fatal("follow-up job failed after unplaceable job")
	}
}

// TestLiveControllerMisuse locks down the terminal-state and
// validation errors.
func TestLiveControllerMisuse(t *testing.T) {
	cfg, _ := liveEquivConfig(1, BatchMode)
	lc, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := qlib.GHZ(4)
	if err := lc.Submit(&Job{ID: 0, Circuit: c}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&Job{ID: 0, Circuit: c}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate submit err = %v", err)
	}
	if err := lc.Submit(&Job{ID: 1}); err == nil || !strings.Contains(err.Error(), "no circuit") {
		t.Fatalf("nil-circuit submit err = %v", err)
	}
	if _, err := lc.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Drain(); err == nil {
		t.Fatal("second drain should error")
	}
	if err := lc.Submit(&Job{ID: 2, Circuit: c}); err == nil {
		t.Fatal("submit after drain should error")
	}
	if err := lc.StepUntil(10); err == nil {
		t.Fatal("step after drain should error")
	}
}

// TestLiveStepUntilNaN: a NaN step fails before touching any state —
// the clock, the pending events and the sticky error stay as they were.
func TestLiveStepUntilNaN(t *testing.T) {
	cfg, _ := liveEquivConfig(1, BatchMode)
	lc, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&Job{ID: 0, Circuit: qlib.GHZ(4), Arrival: 200}); err != nil {
		t.Fatal(err)
	}
	if err := lc.StepUntil(100); err != nil {
		t.Fatal(err)
	}
	if err := lc.StepUntil(math.NaN()); err == nil {
		t.Fatal("StepUntil(NaN) returned nil")
	}
	if lc.Now() != 100 || lc.Status(0) != StatusPending {
		t.Fatalf("after StepUntil(NaN): Now %v, job 0 %v; want 100, pending", lc.Now(), lc.Status(0))
	}
	if err := lc.StepUntil(50); err != nil || lc.Now() != 100 {
		t.Fatalf("StepUntil(50): err %v, Now %v; want nil, 100", err, lc.Now())
	}
	res, err := lc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Failed || res[0].PlacedAt != 200 {
		t.Fatalf("job 0 = %+v, want placed at its arrival 200", res[0])
	}
}

// TestDrainCancelsIdleWake: once the last job retires, the controller
// keeps a tick pending at its release. Drain applies trailing releases
// silently, so it cancels that wake: the stale tick still fires and
// moves the clock, but runs no controller pass.
func TestDrainCancelsIdleWake(t *testing.T) {
	cfg, _ := liveEquivConfig(1, BatchMode)
	lc, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&Job{ID: 0, Circuit: qlib.GHZ(30)}); err != nil {
		t.Fatal(err)
	}
	for step := 1.0; lc.Status(0) != StatusCompleted; step++ {
		if step > 1e5 {
			t.Fatal("job never completed")
		}
		if err := lc.StepUntil(step); err != nil {
			t.Fatal(err)
		}
	}
	if !(lc.tickAt > lc.Now()) {
		t.Fatalf("no idle wake pending after the last retirement (tickAt %v, now %v)", lc.tickAt, lc.Now())
	}
	wake, events := lc.tickAt, lc.RunStats().Events
	if _, err := lc.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := lc.RunStats().Events; got != events {
		t.Fatalf("Drain ran the cancelled wake: %d events, want %d", got, events)
	}
	if lc.Now() != wake {
		t.Fatalf("Now() = %v after Drain, want the stale wake's %v", lc.Now(), wake)
	}
	if free := cfg.Cloud.TotalFreeComputing(); free != lc.totalComputing {
		t.Fatalf("%d of %d computing qubits free after Drain", free, lc.totalComputing)
	}
}

// TestRunOnce: Run ends in Drain, so a controller runs once — a second
// Run fails with ErrDrained and leaves the first run's results alone.
func TestRunOnce(t *testing.T) {
	cfg, _ := liveEquivConfig(1, BatchMode)
	lc, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := qlib.GHZ(4)
	first, err := lc.Run([]*Job{{ID: 0, Circuit: c}})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].Failed || first[0].Finished <= 0 {
		t.Fatalf("first run results = %+v", first)
	}
	got, err := lc.Run([]*Job{{ID: 1, Circuit: c}})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("second Run err = %v, want ErrDrained", err)
	}
	if got != nil {
		t.Fatalf("second Run returned results %+v", got)
	}
	if s := lc.Status(1); s != StatusUnknown {
		t.Fatalf("job of the rejected run has status %v, want unknown", s)
	}
	if res := lc.Results(); len(res) != 1 || res[0] != first[0] {
		t.Fatalf("results after the rejected run = %+v, want the first run's", res)
	}
}

// TestLiveSnapshotDiscountsTrailingReleases: after the last job
// finishes, matured-but-unapplied trailing releases must not inflate
// the reported utilization.
func TestLiveSnapshotDiscountsTrailingReleases(t *testing.T) {
	cfg, _ := liveEquivConfig(2, BatchMode)
	lc, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := qlib.Build("qft_n29")
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Submit(&Job{ID: 0, Circuit: c}); err != nil {
		t.Fatal(err)
	}
	if err := lc.StepUntil(1e7); err != nil {
		t.Fatal(err)
	}
	snap := lc.Snapshot()
	if snap.Completed != 1 {
		t.Fatalf("snapshot %+v, want 1 completed", snap)
	}
	if math.Abs(snap.Utilization) > 1e-12 {
		t.Fatalf("utilization %v after completion, want 0 (trailing releases discounted; %d pending)",
			snap.Utilization, snap.PendingReleases)
	}
}
