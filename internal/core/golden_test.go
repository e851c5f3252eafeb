package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudqc/internal/fault"
	"cloudqc/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_runs.txt from the current code")

const goldenPath = "testdata/golden_runs.txt"

// goldenDigest hashes a canonical encoding of run observables. Floats
// are hashed by their IEEE-754 bits, so any one-ulp drift changes the
// digest.
type goldenDigest struct{ h hash.Hash }

func (d goldenDigest) f(xs ...float64) {
	for _, x := range xs {
		fmt.Fprintf(d.h, "%x,", math.Float64bits(x))
	}
}

func (d goldenDigest) i(xs ...int64) {
	for _, x := range xs {
		fmt.Fprintf(d.h, "%d,", x)
	}
}

func (d goldenDigest) v(x any) { fmt.Fprintf(d.h, "%v;", x) }

// goldenFeatures are the feature sets each (mode, arrivals) pair runs
// under: each alone, then all three together.
var goldenFeatures = []struct {
	name                   string
	preempt, faults, trace bool
}{
	{"plain", false, false, false},
	{"preempt", true, false, false},
	{"faults", false, true, false},
	{"trace", false, false, true},
	{"all", true, true, true},
}

// goldenFaultPlan downs QPU 0 from t=0 (the first event of the run),
// downs QPU 2 mid-run, and halves one link's EPR success probability.
func goldenFaultPlan(cfg Config) *fault.Plan {
	topo := cfg.Cloud.Topology()
	v := -1
	for w := 1; w < topo.N() && v < 0; w++ {
		if topo.HasEdge(0, w) {
			v = w
		}
	}
	return &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindQPUOutage, QPU: 0, From: 0, To: 300},
		{Kind: fault.KindQPUOutage, QPU: 2, From: 3000, To: 6000},
		{Kind: fault.KindLinkDegrade, U: 0, V: v, Scale: 0.5, From: 1000, To: 8000},
	}}
}

// goldenRun executes one row through LiveController.Run and digests every
// observable: per-job results, RunStats, the recorder series,
// PreemptStats, fault.Stats, plan-cache stats, and — with tracing on —
// each job's spans and JCT attribution.
func goldenRun(t *testing.T, mode Mode, poisson bool, preempt, faults, traced bool) string {
	t.Helper()
	cfg, rec := liveEquivConfig(1, mode)
	if preempt {
		cfg.Preempt = PreemptRescue
	}
	if faults {
		cfg.Faults = goldenFaultPlan(cfg)
	}
	if traced {
		cfg.Trace = trace.New()
	}
	ct, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ct.Run(liveStream(t, poisson, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v poisson=%v preempt=%v faults=%v trace=%v: %+v %+v %+v",
		mode, poisson, preempt, faults, traced, ct.RunStats(), ct.PreemptStats(), ct.FaultStats())
	d := goldenDigest{sha256.New()}
	for _, r := range results {
		d.i(int64(r.Job.ID), int64(r.RemoteGates))
		d.v(r.Failed)
		d.f(r.PlacedAt, r.Finished, r.JCT, r.WaitTime)
		if r.Placement != nil {
			d.v(r.Placement.QubitToQPU)
		}
	}
	d.v(ct.RunStats())
	for _, s := range rec.Samples() {
		d.f(s.Time, s.Utilization)
		d.i(int64(s.Active), int64(s.Queued))
	}
	d.v(ct.PreemptStats())
	d.v(ct.FaultStats())
	d.v(ct.PlanCacheStats())
	if traced {
		for _, tr := range cfg.Trace.Traces() {
			d.i(int64(tr.ID), int64(tr.Tenant), int64(tr.RoundsTotal))
			d.v(tr.Done)
			d.v(tr.Failed)
			a := tr.Attr
			d.f(tr.Arrival, tr.Finished, a.JCT, a.Queue, a.Compile, a.Local, a.Network, a.Suspended)
			d.f(tr.Admit.At, tr.Admit.WFQStart)
			d.v(tr.Admit.Mode)
			// %v prints floats in shortest round-trip form, so the span
			// structs hash exactly too.
			d.v(tr.Compiles)
			d.v(tr.Suspends)
			d.v(tr.Faults)
		}
	}
	return fmt.Sprintf("%x", d.h.Sum(nil))
}

// TestGoldenRuns pins LiveController.Run's observables for every admission
// mode × arrival pattern × feature set (preemption, faults with a t=0
// outage, tracing, and all three together) against the committed
// digests in testdata/golden_runs.txt. A refactor that claims to keep
// results bit-identical must leave the table untouched; an intended
// behavior change regenerates it with
//
//	go test ./internal/core -run TestGoldenRuns -update
func TestGoldenRuns(t *testing.T) {
	var lines []string
	for _, mode := range []Mode{BatchMode, FIFOMode, EDFMode, WFQMode} {
		for _, poisson := range []bool{false, true} {
			arrivals := "batch"
			if poisson {
				arrivals = "poisson"
			}
			for _, f := range goldenFeatures {
				name := mode.String() + "/" + arrivals + "/" + f.name
				lines = append(lines, name+" "+goldenRun(t, mode, poisson, f.preempt, f.faults, f.trace))
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Errorf("golden table has %d rows, the test produces %d", len(want), len(lines))
	}
	for _, l := range lines {
		name, got, _ := strings.Cut(l, " ")
		if want[name] != got {
			t.Errorf("%s: digest %s, golden %s", name, got, want[name])
		}
	}
}

// lockStepPath holds frozen reference rows from the original
// round-per-iteration controller, a loop that advanced the clock one
// EPRAttempt slot per iteration whenever any job was active and
// admitted arrivals on that round grid. Each row is a case name, the
// loop's round count, and a goldenDigest of its per-job results with
// that count appended. The rows are reference output, not Run's, so no
// flag regenerates them: Run must reproduce the results bit-identically
// while executing no more rounds.
const lockStepPath = "testdata/lockstep_runs.txt"

// lockStepDigest hashes the observables the frozen reference rows pin.
func lockStepDigest(results []*JobResult, rounds int) string {
	d := goldenDigest{sha256.New()}
	for _, r := range results {
		d.i(int64(r.Job.ID), int64(r.RemoteGates))
		d.v(r.Failed)
		d.f(r.PlacedAt, r.Finished, r.JCT, r.WaitTime)
	}
	d.i(int64(rounds))
	return fmt.Sprintf("%x", d.h.Sum(nil))
}

// checkLockStep compares the results and round count of ct's last Run
// against the frozen reference row name.
func checkLockStep(t *testing.T, name string, ct *LiveController, got []*JobResult) {
	t.Helper()
	data, err := os.ReadFile(lockStepPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != name {
			continue
		}
		rounds, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("%s: bad round count %q", lockStepPath, f[1])
		}
		if lockStepDigest(got, rounds) != f[2] {
			for _, r := range got {
				t.Logf("job %d: %+v", r.Job.ID, *r)
			}
			t.Fatalf("%s diverged from the lock-step reference", name)
		}
		if ev := ct.RunStats().Rounds; ev > rounds {
			t.Fatalf("%s: event-driven run used more rounds (%d) than lock-step (%d)", name, ev, rounds)
		}
		return
	}
	t.Fatalf("%s: no row %q", lockStepPath, name)
}
