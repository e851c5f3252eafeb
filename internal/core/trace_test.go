// Trace integration tests live in the external test package for the
// same reason the preemption tests do: the determinism matrix drives
// Federations, and internal/fed imports core.
package core_test

import (
	"reflect"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/metrics"
	"cloudqc/internal/qlib"
	"cloudqc/internal/trace"
)

// TestTraceOffDifferential is the tentpole's hard guarantee: the span
// recorder is observation-only. An untraced run (the nil-recorder
// zero-cost path every pre-trace caller built) and a traced run of the
// same stream agree bit-identically on every pre-existing observable —
// per-job results, run statistics, recorder series — across Run,
// LiveController, and a 1-shard Federation, while the traced side's
// attributions sum to each job's JCT exactly.
func TestTraceOffDifferential(t *testing.T) {
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
			// Reference: untraced one-shot Run — Config.Trace nil.
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

			// Traced one-shot Run of the identical stream.
			jobsB := preemptStream(t, tc.poisson, seed)
			cfgB, recB := preemptEquivConfig(seed, tc.mode)
			trcB := trace.New()
			cfgB.Trace = trcB
			ct, err := core.NewLiveController(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			gotRun, err := ct.Run(jobsB)
			if err != nil {
				t.Fatal(err)
			}

			// Traced live controller.
			jobsC := preemptStream(t, tc.poisson, seed)
			cfgC, recC := preemptEquivConfig(seed, tc.mode)
			trcC := trace.New()
			cfgC.Trace = trcC
			lc, err := core.NewLiveController(cfgC)
			if err != nil {
				t.Fatal(err)
			}
			if lc.Trace() != trcC {
				t.Fatal("LiveController.Trace() lost the recorder")
			}
			for _, j := range jobsC {
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

			// Traced 1-shard federation, recorder shared via fed.Config.
			jobsD := preemptStream(t, tc.poisson, seed)
			cfgD, recD := preemptEquivConfig(seed, tc.mode)
			trcD := trace.New()
			fedCloud := cfgD.Cloud
			cfgD.Cloud, cfgD.Recorder = nil, nil
			f, err := fed.New(fed.Config{
				Shard:     cfgD,
				Clouds:    []*cloud.Cloud{fedCloud},
				Recorders: []*metrics.Recorder{recD},
				Trace:     trcD,
			})
			if err != nil {
				t.Fatal(err)
			}
			if f.Trace() != trcD {
				t.Fatal("Federation.Trace() lost the recorder")
			}
			for _, j := range jobsD {
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

			for name, got := range map[string][]*core.JobResult{"run": gotRun, "live": gotLive, "fed": gotFed} {
				if len(got) != len(want) {
					t.Fatalf("%s result count %d vs %d", name, len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if g.Job.ID != w.Job.ID || g.Failed != w.Failed ||
						g.PlacedAt != w.PlacedAt || g.Finished != w.Finished ||
						g.JCT != w.JCT || g.WaitTime != w.WaitTime ||
						g.RemoteGates != w.RemoteGates {
						t.Fatalf("%s job %d diverged from untraced reference:\nref %+v\ngot %+v", name, w.Job.ID, *w, *g)
					}
				}
			}
			if ref.RunStats() != ct.RunStats() ||
				ref.RunStats() != lc.RunStats() || ref.RunStats() != f.RunStats() {
				t.Fatalf("run stats diverged: ref %+v run %+v live %+v fed %+v",
					ref.RunStats(), ct.RunStats(), lc.RunStats(), f.RunStats())
			}
			sa, sb, sc, sd := recA.Samples(), recB.Samples(), recC.Samples(), recD.Samples()
			if len(sa) != len(sb) || len(sa) != len(sc) || len(sa) != len(sd) {
				t.Fatalf("recorder lengths diverged: %d / %d / %d / %d", len(sa), len(sb), len(sc), len(sd))
			}
			for i := range sa {
				if sa[i] != sb[i] || sa[i] != sc[i] || sa[i] != sd[i] {
					t.Fatalf("sample %d diverged: ref %+v run %+v live %+v fed %+v", i, sa[i], sb[i], sc[i], sd[i])
				}
			}

			// The traced arms carry identical span trees — a trace is a
			// pure function of the workload, not of the driver — and every
			// attribution sums to its JCT bitwise against the reference
			// results.
			for _, trc := range []*trace.Recorder{trcC, trcD} {
				if !reflect.DeepEqual(trcB.Traces(), trc.Traces()) {
					t.Fatal("span trees diverge across Run / live / fed drivers")
				}
			}
			if trcB.Len() != len(want) {
				t.Fatalf("recorder holds %d traces, want %d", trcB.Len(), len(want))
			}
			for _, w := range want {
				tr := trcB.Get(w.Job.ID)
				if tr == nil || !tr.Done {
					t.Fatalf("job %d has no settled trace", w.Job.ID)
				}
				if tr.Attr.JCT != w.JCT || tr.Failed != w.Failed {
					t.Fatalf("job %d trace JCT %v/failed=%v, result %v/%v",
						w.Job.ID, tr.Attr.JCT, tr.Failed, w.JCT, w.Failed)
				}
				sum := tr.Attr.Queue + tr.Attr.Compile + tr.Attr.Local + tr.Attr.Network + tr.Attr.Suspended
				if sum != tr.Attr.JCT {
					t.Fatalf("job %d phases sum to %v, JCT %v (%+v)", w.Job.ID, sum, tr.Attr.JCT, tr.Attr)
				}
				if !w.Failed && tr.Attr.Queue != w.WaitTime {
					t.Fatalf("job %d queue phase %v, result wait %v", w.Job.ID, tr.Attr.Queue, w.WaitTime)
				}
			}
		})
	}
}

// TestTraceDeterminism4Shards: the same Poisson stream traced twice
// through a 4-shard preempt-enabled federation yields identical span
// trees — traces live on the virtual clock, so nothing about sharding,
// routing, or suspension perturbs them between runs.
func TestTraceDeterminism4Shards(t *testing.T) {
	run := func() *trace.Recorder {
		trc := trace.New()
		scfg := preemptConfig(core.PreemptRescue, core.EDFMode)
		cloudShape := scfg.Cloud
		scfg.Cloud = nil
		f, err := fed.New(fed.Config{
			Shard: scfg,
			Clouds: []*cloud.Cloud{
				cloudShape,
				cloud.NewRandom(8, 0.3, 20, 5, 2),
				cloud.NewRandom(8, 0.3, 20, 5, 3),
				cloud.NewRandom(8, 0.3, 20, 5, 4),
			},
			Trace: trc,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range preemptStream(t, true, 3) {
			if err := f.StepUntil(j.Arrival); err != nil {
				t.Fatal(err)
			}
			j.ID = -1 // let the federation's sequencer assign shard-tagged ids
			if err := f.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Drain(); err != nil {
			t.Fatal(err)
		}
		return trc
	}
	a, b := run(), run()
	if a.Len() == 0 {
		t.Fatal("no traces recorded")
	}
	if !reflect.DeepEqual(a.Traces(), b.Traces()) {
		t.Fatal("4-shard traced runs diverge")
	}
	if !reflect.DeepEqual(a.Tenants(), b.Tenants()) {
		t.Fatal("4-shard tenant attributions diverge")
	}
	for _, tr := range a.Traces() {
		if !tr.Done {
			t.Fatalf("job %d trace never settled", tr.ID)
		}
		sum := tr.Attr.Queue + tr.Attr.Compile + tr.Attr.Local + tr.Attr.Network + tr.Attr.Suspended
		if sum != tr.Attr.JCT {
			t.Fatalf("job %d phases sum to %v, JCT %v", tr.ID, sum, tr.Attr.JCT)
		}
	}
}

// TestTraceSuspendSpans: a rescue preemption shows up on the victim's
// trace as a resolved suspension with matching suspended-phase time,
// and the resume's recompile is span-recorded.
func TestTraceSuspendSpans(t *testing.T) {
	trc := trace.New()
	cfg := preemptConfig(core.PreemptRescue, core.EDFMode)
	cfg.Trace = trc
	ct, err := core.NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The rescue-functional scenario: a long incumbent owns the cloud,
	// a deadline-carrying job preempts it at a round boundary.
	results, err := ct.Run([]*core.Job{
		{ID: 0, Circuit: qlib.GHZ(127), Arrival: 0},
		{ID: 1, Circuit: qlib.GHZ(127), Arrival: 10, Deadline: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ct.PreemptStats().Preemptions == 0 {
		t.Fatal("setup: rescue never fired")
	}
	suspended := 0
	for _, r := range results {
		tr := trc.Get(r.Job.ID)
		for _, s := range tr.Suspends {
			if !s.Resumed || s.To < s.From {
				t.Fatalf("job %d unresolved suspension %+v after drain", r.Job.ID, s)
			}
		}
		if len(tr.Suspends) > 0 {
			suspended++
			if tr.Attr.Suspended <= 0 {
				t.Fatalf("job %d has suspensions but zero suspended phase: %+v", r.Job.ID, tr.Attr)
			}
			var resumes int
			for _, c := range tr.Compiles {
				if c.Resume {
					resumes++
				}
			}
			if resumes != len(tr.Suspends) {
				t.Fatalf("job %d: %d resume compiles for %d suspensions", r.Job.ID, resumes, len(tr.Suspends))
			}
		}
	}
	if suspended == 0 {
		t.Fatal("preemptions fired but no trace carries a suspension span")
	}
}

// TestFedRejectsShardTrace: the recorder must be shared through
// fed.Config.Trace, never smuggled per shard.
func TestFedRejectsShardTrace(t *testing.T) {
	scfg := preemptConfig(core.PreemptOff, core.FIFOMode)
	scfg.Trace = trace.New()
	cloudShape := scfg.Cloud
	scfg.Cloud = nil
	if _, err := fed.New(fed.Config{Shard: scfg, Clouds: []*cloud.Cloud{cloudShape}}); err == nil {
		t.Fatal("fed.New accepted a per-shard trace recorder")
	}
}
