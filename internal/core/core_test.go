package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
)

func testCloud() *cloud.Cloud {
	return cloud.NewRandom(20, 0.3, 20, 5, 1)
}

func controller(t *testing.T, cfg Config) *LiveController {
	t.Helper()
	if cfg.Cloud == nil {
		cfg.Cloud = testCloud()
	}
	ct, err := NewLiveController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestIntensityMetric(t *testing.T) {
	c := qlib.GHZ(10) // 9 CX, depth 11 with measures, 10 qubits
	got := Intensity(c)
	want := 9.0/10 + 10 + 11
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Intensity = %v, want %v", got, want)
	}
}

func TestNewLiveControllerValidation(t *testing.T) {
	if _, err := NewLiveController(Config{}); err == nil {
		t.Fatal("nil cloud should error")
	}
	bad := Config{Cloud: testCloud(), Model: epr.Model{Latency: epr.DefaultLatency(), SuccessProb: 2}}
	if _, err := NewLiveController(bad); err == nil {
		t.Fatal("invalid model should error")
	}
	noComm := Config{Cloud: cloud.New(graph.Path(2), 20, 0)}
	if _, err := NewLiveController(noComm); err == nil {
		t.Fatal("zero-comm cloud should error")
	}
}

func TestRunSingleSmallJob(t *testing.T) {
	ct := controller(t, Config{Seed: 1})
	jobs := []*Job{{ID: 1, Circuit: qlib.GHZ(10)}}
	res, err := ct.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Failed {
		t.Fatalf("results = %+v", res[0])
	}
	if res[0].RemoteGates != 0 {
		t.Fatalf("10-qubit GHZ should be local, got %d remote gates", res[0].RemoteGates)
	}
	if res[0].JCT <= 0 {
		t.Fatalf("JCT = %v", res[0].JCT)
	}
	// Cloud restored.
	if ct.cfg.Cloud.Utilization() != 0 {
		t.Fatal("cloud not restored after run")
	}
}

func TestRunDistributedJob(t *testing.T) {
	ct := controller(t, Config{Seed: 2})
	jobs := []*Job{{ID: 7, Circuit: qlib.GHZ(127)}}
	res, err := ct.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Failed || r.RemoteGates == 0 {
		t.Fatalf("expected distributed execution: %+v", r)
	}
	if r.JCT <= 0 || r.Finished < r.PlacedAt {
		t.Fatalf("inconsistent times: %+v", r)
	}
}

func TestRunMultipleJobsAllComplete(t *testing.T) {
	ct := controller(t, Config{Seed: 3})
	var jobs []*Job
	for i, name := range []string{"ghz_n127", "knn_n67", "ising_n66", "qugan_n71"} {
		jobs = append(jobs, &Job{ID: i, Circuit: qlib.MustBuild(name)})
	}
	res, err := ct.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Failed {
			t.Fatalf("job %d failed", r.Job.ID)
		}
		if r.JCT <= 0 {
			t.Fatalf("job %d JCT = %v", r.Job.ID, r.JCT)
		}
	}
	if ct.cfg.Cloud.Utilization() != 0 {
		t.Fatal("cloud not restored")
	}
}

func TestRunQueueingWhenOversubscribed(t *testing.T) {
	// 6 x 127-qubit jobs on a 400-qubit cloud force queueing: at most 3
	// can run at once, so at least one job must wait.
	ct := controller(t, Config{Seed: 4})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, &Job{ID: i, Circuit: qlib.GHZ(127)})
	}
	res, err := ct.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	waited := 0
	for _, r := range res {
		if r.Failed {
			t.Fatalf("job %d failed", r.Job.ID)
		}
		if r.WaitTime > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Fatal("oversubscription should force at least one job to wait")
	}
}

func TestRunJobLargerThanCloudFails(t *testing.T) {
	small := cloud.New(graph.Path(3), 10, 5) // 30 qubits total
	ct := controller(t, Config{Cloud: small, Seed: 5})
	res, err := ct.Run([]*Job{
		{ID: 0, Circuit: qlib.GHZ(127)},
		{ID: 1, Circuit: qlib.GHZ(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Failed {
		t.Fatal("127-qubit job on 30-qubit cloud must fail")
	}
	if res[1].Failed {
		t.Fatal("small job should still complete")
	}
}

func TestRunDuplicateIDRejected(t *testing.T) {
	ct := controller(t, Config{Seed: 6})
	_, err := ct.Run([]*Job{
		{ID: 1, Circuit: qlib.GHZ(5)},
		{ID: 1, Circuit: qlib.GHZ(6)},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate ID error", err)
	}
}

func TestRunNilCircuitRejected(t *testing.T) {
	ct := controller(t, Config{Seed: 6})
	if _, err := ct.Run([]*Job{{ID: 1}}); err == nil {
		t.Fatal("nil circuit should error")
	}
}

func TestBatchModeOrdersByIntensity(t *testing.T) {
	// Two jobs, cloud only fits one at a time. Batch mode runs the
	// cheaper job (lower intensity) first even though it was submitted
	// second — shortest-estimated-job-first.
	small := cloud.New(graph.Path(2), 20, 5) // 40 qubits total
	light := qlib.GHZ(30)
	heavy := qlib.MustBuild("ising_n34")
	if Intensity(heavy) <= Intensity(light) {
		t.Skip("fixture assumption broken")
	}
	ct := controller(t, Config{Cloud: small, Mode: BatchMode, Seed: 7})
	res, err := ct.Run([]*Job{
		{ID: 0, Circuit: heavy},
		{ID: 1, Circuit: light},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].PlacedAt > res[0].PlacedAt {
		t.Fatalf("light job placed at %v after heavy at %v", res[1].PlacedAt, res[0].PlacedAt)
	}
}

func TestFIFOModePreservesOrder(t *testing.T) {
	// Heavy submitted first: FIFO must keep it first even though batch
	// mode would reorder (light has lower intensity).
	small := cloud.New(graph.Path(2), 20, 5)
	light := qlib.GHZ(30)
	heavy := qlib.MustBuild("ising_n34")
	ct := controller(t, Config{Cloud: small, Mode: FIFOMode, Seed: 8})
	res, err := ct.Run([]*Job{
		{ID: 0, Circuit: heavy},
		{ID: 1, Circuit: light},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].PlacedAt > res[1].PlacedAt {
		t.Fatalf("FIFO violated: job 0 placed at %v, job 1 at %v", res[0].PlacedAt, res[1].PlacedAt)
	}
}

func TestArrivalsRespected(t *testing.T) {
	ct := controller(t, Config{Seed: 9})
	res, err := ct.Run([]*Job{
		{ID: 0, Circuit: qlib.GHZ(10), Arrival: 0},
		{ID: 1, Circuit: qlib.GHZ(10), Arrival: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].PlacedAt < 500 {
		t.Fatalf("job placed at %v before its arrival 500", res[1].PlacedAt)
	}
	if res[1].JCT >= res[1].Finished {
		t.Fatal("JCT must be measured from arrival, not zero")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []float64 {
		ct := controller(t, Config{Cloud: cloud.NewRandom(20, 0.3, 20, 5, 1), Seed: 11})
		var jobs []*Job
		for i, name := range []string{"ghz_n127", "knn_n67"} {
			jobs = append(jobs, &Job{ID: i, Circuit: qlib.MustBuild(name)})
		}
		res, err := ct.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var jcts []float64
		for _, r := range res {
			jcts = append(jcts, r.JCT)
		}
		return jcts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic JCTs: %v vs %v", a, b)
		}
	}
}

func TestCrossTenantContentionSlowsJobs(t *testing.T) {
	// The same distributed job, alone vs alongside a competitor sharing
	// the cloud: contention for communication qubits must not make it
	// faster, and usually slows it.
	mkJobs := func(n int) []*Job {
		var jobs []*Job
		for i := 0; i < n; i++ {
			jobs = append(jobs, &Job{ID: i, Circuit: qlib.MustBuild("knn_n67")})
		}
		return jobs
	}
	avgJCT := func(n int) float64 {
		total := 0.0
		const reps = 5
		for s := int64(0); s < reps; s++ {
			ct := controller(t, Config{Cloud: cloud.NewRandom(20, 0.3, 20, 5, 1), Seed: s})
			res, err := ct.Run(mkJobs(n))
			if err != nil {
				t.Fatal(err)
			}
			total += res[0].JCT
		}
		return total / reps
	}
	alone, contended := avgJCT(1), avgJCT(3)
	if contended < alone*0.95 {
		t.Fatalf("contended JCT %v unexpectedly beat solo %v", contended, alone)
	}
}

func TestSchedulerPolicyPluggable(t *testing.T) {
	for _, p := range []sched.Policy{sched.GreedyPolicy{}, sched.AveragePolicy{}, sched.RandomPolicy{}} {
		ct := controller(t, Config{Cloud: cloud.NewRandom(20, 0.3, 20, 5, 1), Policy: p, Seed: 13})
		res, err := ct.Run([]*Job{{ID: 0, Circuit: qlib.MustBuild("knn_n67")}})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res[0].Failed || res[0].JCT <= 0 {
			t.Fatalf("%s: bad result %+v", p.Name(), res[0])
		}
	}
}

func TestRecorderCapturesUtilization(t *testing.T) {
	rec := metrics.NewRecorder(0)
	ct := controller(t, Config{Seed: 15, Recorder: rec})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, &Job{ID: i, Circuit: qlib.GHZ(127)})
	}
	if _, err := ct.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(rec.Samples()) == 0 {
		t.Fatal("recorder captured nothing")
	}
	if rec.PeakUtilization() <= 0 {
		t.Fatal("peak utilization should be positive with running jobs")
	}
	if rec.PeakUtilization() > 1 {
		t.Fatalf("utilization above 1: %v", rec.PeakUtilization())
	}
}

// equivConfig builds a fresh controller for the equivalence tests: the
// two runs under comparison must not share a controller (RNG state), a
// placer (internal search state), or a cloud (reservations).
func equivConfig(t *testing.T, seed int64, mode Mode, qpus int) *LiveController {
	t.Helper()
	pCfg := place.DefaultConfig()
	pCfg.Seed = seed
	ct, err := NewLiveController(Config{
		Cloud:  cloud.NewRandom(qpus, 0.3, 20, 5, 1),
		Placer: place.NewCloudQC(pCfg),
		Mode:   mode,
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestRunMatchesLockStep is the seeded equivalence guarantee: on batch
// workloads (all arrivals at 0) Run must reproduce the frozen lock-step
// reference rows bit-identically — same RNG draws at the same round
// times, just without simulating the empty rounds.
func TestRunMatchesLockStep(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		qpus  int
		names []string
	}{
		{"qugan-batch", BatchMode, 20, []string{"qugan_n39", "qugan_n71", "qugan_n111", "qugan_n39", "qugan_n71"}},
		{"mixed-fifo", FIFOMode, 20, []string{"knn_n67", "qft_n63", "ghz_n127", "ising_n66"}},
		// 5 x 127-qubit jobs on a 160-qubit cloud force queueing and
		// release-driven placement retries.
		{"oversubscribed", BatchMode, 8, []string{"ghz_n127", "ghz_n127", "ghz_n127", "ghz_n127", "ghz_n127"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				jobs, err := buildJobs(tc.names)
				if err != nil {
					t.Fatal(err)
				}
				ev := equivConfig(t, seed, tc.mode, tc.qpus)
				got, err := ev.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				checkLockStep(t, fmt.Sprintf("%s/%d", tc.name, seed), ev, got)
			}
		})
	}
}

func buildJobs(names []string) ([]*Job, error) {
	var jobs []*Job
	for i, name := range names {
		c, err := qlib.Build(name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, &Job{ID: i, Circuit: c})
	}
	return jobs, nil
}

// lockStepStalledRounds is the round count the lock-step reference
// controller executed on TestRunSkipsStalledRounds's workload: one round
// per EPRAttempt slot while any job was active.
const lockStepStalledRounds = 1442

// TestRunSkipsStalledRounds checks the headline fix: when active jobs
// wait on long local tails, the event-driven clock jumps instead of
// spinning one round per EPRAttempt slot.
func TestRunSkipsStalledRounds(t *testing.T) {
	jobs, err := buildJobs([]string{"multiplier_n45", "adder_n64"})
	if err != nil {
		t.Fatal(err)
	}
	ev := equivConfig(t, 3, BatchMode, 20)
	if _, err := ev.Run(jobs); err != nil {
		t.Fatal(err)
	}
	lock, event := lockStepStalledRounds, ev.RunStats().Rounds
	if event >= lock {
		t.Fatalf("event-driven rounds %d not fewer than lock-step %d", event, lock)
	}
	t.Logf("rounds: lock-step %d, event-driven %d (%.1fx fewer)",
		lock, event, float64(lock)/float64(event))
}

// TestQueuedCountsOnlyArrived is the Recorder regression test: a job
// whose arrival is far in the future must not inflate the Queued sample
// while the cloud sits idle or runs earlier jobs.
func TestQueuedCountsOnlyArrived(t *testing.T) {
	rec := metrics.NewRecorder(0)
	ct := controller(t, Config{Seed: 21, Recorder: rec})
	const lateArrival = 1e6
	_, err := ct.Run([]*Job{
		{ID: 0, Circuit: qlib.MustBuild("knn_n67"), Arrival: 0},
		{ID: 1, Circuit: qlib.GHZ(10), Arrival: lateArrival},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Samples()) == 0 {
		t.Fatal("no samples recorded")
	}
	for _, s := range rec.Samples() {
		if s.Time < lateArrival && s.Queued != 0 {
			t.Fatalf("sample at %v reports Queued=%d before the job arrived", s.Time, s.Queued)
		}
	}
}

// TestRunFlushesClosingSample: thinned recorders must still capture the
// end-of-run state.
func TestRunFlushesClosingSample(t *testing.T) {
	rec := metrics.NewRecorder(1e9) // thinning window wider than any run
	ct := controller(t, Config{Seed: 22, Recorder: rec})
	res, err := ct.Run([]*Job{{ID: 0, Circuit: qlib.MustBuild("knn_n67")}})
	if err != nil {
		t.Fatal(err)
	}
	samples := rec.Samples()
	if len(samples) < 2 {
		t.Fatalf("samples = %d, want opening + closing", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Time < res[0].Finished {
		t.Fatalf("closing sample at %v predates job finish %v", last.Time, res[0].Finished)
	}
	if last.Utilization != 0 {
		t.Fatalf("closing utilization = %v, want 0 after all releases", last.Utilization)
	}
}

func TestModelDefaultsOnlyWhenFullyZero(t *testing.T) {
	// Fully zero model: paper defaults apply.
	ct := controller(t, Config{Seed: 23})
	if ct.cfg.Model != epr.DefaultModel() {
		t.Fatalf("zero model not defaulted: %+v", ct.cfg.Model)
	}
	// Partial model (latencies set, EPRAttempt forgotten): the caller's
	// fields must not be silently replaced — this is an error.
	partial := epr.Model{SuccessProb: 0.5}
	if _, err := NewLiveController(Config{Cloud: testCloud(), Model: partial}); err == nil {
		t.Fatal("partial model should error, not be overwritten")
	}
}

func TestEmptyRegisterJobRejected(t *testing.T) {
	ct := controller(t, Config{Seed: 24})
	// circuit.New rejects 0 qubits, but a zero-value Circuit slips past
	// it and used to reach Intensity, whose division by zero produced a
	// NaN that silently corrupted the batch sort.
	empty := &circuit.Circuit{Name: "empty"}
	_, err := ct.Run([]*Job{{ID: 0, Circuit: empty}})
	if err == nil || !strings.Contains(err.Error(), "empty register") {
		t.Fatalf("err = %v, want empty-register rejection", err)
	}
}

// TestNonFiniteJobTimesRejected: a NaN arrival used to abort Run with a
// misleading "unplaceable" error, a +Inf arrival "completed" with a NaN
// JCT, and a NaN deadline was accepted, breaking EDF's comparator.
func TestNonFiniteJobTimesRejected(t *testing.T) {
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{"NaN arrival", Job{Arrival: math.NaN()}, "non-finite arrival"},
		{"+Inf arrival", Job{Arrival: math.Inf(1)}, "non-finite arrival"},
		{"NaN deadline", Job{Deadline: math.NaN()}, "NaN deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct := controller(t, Config{Seed: 24, Mode: EDFMode})
			j := tc.job
			j.Circuit = qlib.GHZ(10)
			_, err := ct.Run([]*Job{&j})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a %q rejection", err, tc.want)
			}
		})
	}
}

// TestOnlineArrivalAdmittedOnArrival: a job arriving while the cloud
// has free capacity (but other jobs are running) is admitted on
// arrival, not held until an unrelated completion.
func TestOnlineArrivalAdmittedOnArrival(t *testing.T) {
	ct := controller(t, Config{Seed: 25})
	res, err := ct.Run([]*Job{
		{ID: 0, Circuit: qlib.MustBuild("knn_n67"), Arrival: 0},
		{ID: 1, Circuit: qlib.GHZ(10), Arrival: 55}, // fits alongside job 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Finished <= 55 {
		t.Skip("fixture assumption broken: job 0 finished before job 1 arrived")
	}
	if res[1].WaitTime != 0 {
		t.Fatalf("job 1 waited %v despite free capacity at arrival", res[1].WaitTime)
	}
	if res[1].PlacedAt != 55 {
		t.Fatalf("job 1 placed at %v, want its arrival instant 55", res[1].PlacedAt)
	}
}

// lockStepSparseMeanUtil is the MeanUtilization the lock-step reference
// controller recorded on TestSparseStreamUtilizationMatchesLockStep's
// stream, sampling once per round.
const lockStepSparseMeanUtil = 0.0035925759224453287

// TestSparseStreamUtilizationMatchesLockStep: on a sparse online stream
// the event-driven core must wake at release times even with nothing
// queued, and must record the idle span before the first arrival —
// otherwise sample-and-hold holds stale utilization across idle gaps
// and MeanUtilization is grossly overstated vs the lock-step reference.
func TestSparseStreamUtilizationMatchesLockStep(t *testing.T) {
	c := qlib.MustBuild("knn_n67")
	recEv := metrics.NewRecorder(0)
	ev := equivConfig(t, 5, BatchMode, 20)
	ev.cfg.Recorder = recEv
	if _, err := ev.Run([]*Job{
		{ID: 0, Circuit: c, Arrival: 1000},
		{ID: 1, Circuit: c, Arrival: 200000},
	}); err != nil {
		t.Fatal(err)
	}
	a, b := lockStepSparseMeanUtil, recEv.MeanUtilization()
	if math.Abs(a-b) > 0.02 {
		t.Fatalf("mean utilization diverged: lock-step %v, event-driven %v", a, b)
	}
	// The idle prefix [0, 1000) must be part of the recorded horizon.
	if first := recEv.Samples()[0]; first.Time != 0 || first.Utilization != 0 {
		t.Fatalf("first sample = %+v, want idle opening sample at t=0", first)
	}
}

// failingPlacer places its first job normally, then errors hard.
type failingPlacer struct {
	inner place.Placer
	calls int
}

func (p *failingPlacer) Name() string { return "failing" }

func (p *failingPlacer) Place(cl *cloud.Cloud, c *circuit.Circuit) (*place.Placement, error) {
	p.calls++
	if p.calls > 1 {
		return nil, errors.New("placer exploded")
	}
	return p.inner.Place(cl, c)
}

// TestRunErrorReleasesReservations: a failed run must not leak computing
// qubit reservations on the shared cloud.
func TestRunErrorReleasesReservations(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		cl := testCloud()
		ct, err := NewLiveController(Config{
			Cloud:  cl,
			Placer: &failingPlacer{inner: place.NewCloudQC(place.DefaultConfig())},
			Seed:   27,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = ct.Run([]*Job{
			{ID: 0, Circuit: qlib.GHZ(127)},
			{ID: 1, Circuit: qlib.GHZ(127)},
		})
		if err == nil {
			t.Fatal("second placement should have errored")
		}
		if cl.Utilization() != 0 {
			t.Fatalf("leaked reservations: utilization %v after failed run", cl.Utilization())
		}
	})
}

func TestRunUnplaceableWaitingJobsError(t *testing.T) {
	// A job that fits the cloud's total capacity but can never be placed
	// (per-QPU fragmentation) must surface the "unplaceable with all
	// resources free" error, not hang.
	small := cloud.New(graph.Path(3), 10, 5)
	ct := controller(t, Config{Cloud: small, Seed: 26})
	big := qlib.GHZ(28) // 28 <= 30 total, but placement may still fail repeatedly
	res, err := ct.Run([]*Job{{ID: 0, Circuit: big}})
	if err != nil {
		if !strings.Contains(err.Error(), "unplaceable") {
			t.Fatalf("err = %v, want unplaceable error", err)
		}
		return
	}
	// Placement succeeded on this topology: fine — the error path is
	// covered by the infeasible case below.
	if res[0].Failed {
		t.Fatal("job within total capacity should not be marked failed")
	}
}

func TestLocalJobJCTMatchesCriticalPath(t *testing.T) {
	ct := controller(t, Config{Seed: 14})
	c := circuit.New("tiny", 2)
	c.Append(circuit.H(0), circuit.CX(0, 1), circuit.M(1))
	res, err := ct.Run([]*Job{{ID: 0, Circuit: c}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].JCT-6.1) > 1e-9 {
		t.Fatalf("JCT = %v, want 6.1 (0.1 + 1 + 5)", res[0].JCT)
	}
}

// TestRequestKeysUniquePerRound: the allocation policies count grants
// per request and key the returned map by NodeKey, so tick must never
// hand a policy two requests with one key, however many jobs share the
// round. The stream is BenchmarkClusterOnline's shape, sparse chain
// circuits arriving as a Poisson stream on a 20-QPU cloud, but arriving
// ten times as fast so that several jobs share rounds.
func TestRequestKeysUniquePerRound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"ghz_n127", "cat_n130"}
	jobs := make([]*Job, 0, 12)
	arrival := 0.0
	for i := 0; i < cap(jobs); i++ {
		jobs = append(jobs, &Job{ID: i, Circuit: qlib.MustBuild(names[rng.Intn(len(names))]), Arrival: arrival})
		arrival += rng.ExpFloat64() * 400
	}
	pCfg := place.DefaultConfig()
	pCfg.Seed = 7
	check := &keyCheckingPolicy{t: t}
	ct := controller(t, Config{Placer: place.NewCloudQC(pCfg), Policy: check, Seed: 7})
	if _, err := ct.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if check.maxJobs < 2 {
		t.Fatalf("at most %d job per round: the stream never shared a round", check.maxJobs)
	}
}

// keyCheckingPolicy delegates to CloudQC after failing the test on any
// round that repeats a request key. maxJobs records the most distinct
// jobs seen in one round.
type keyCheckingPolicy struct {
	t       *testing.T
	inner   sched.CloudQCPolicy
	maxJobs int
}

func (p *keyCheckingPolicy) Name() string { return "key-checking" }

func (p *keyCheckingPolicy) Allocate(reqs []sched.Request, budget []int, rng *rand.Rand) map[sched.NodeKey]int {
	seen := make(map[sched.NodeKey]bool, len(reqs))
	jobs := make(map[int]bool)
	for _, r := range reqs {
		if seen[r.Key] {
			p.t.Errorf("round repeats request key %+v", r.Key)
		}
		seen[r.Key] = true
		jobs[r.Key.Job] = true
	}
	p.maxJobs = max(p.maxJobs, len(jobs))
	return p.inner.Allocate(reqs, budget, rng)
}

// TestDefaultPlacerUsesModel: the placer NewLiveController supplies
// scores remote latency with the controller's own EPR model. On the
// empty test cloud qft_n160 places differently at p = 0.9 than at the
// default 0.3, so the placement shows which model the placer holds.
func TestDefaultPlacerUsesModel(t *testing.T) {
	m := epr.DefaultModel()
	m.SuccessProb = 0.9
	ct := controller(t, Config{Model: m})
	circ := qlib.MustBuild("qft_n160")
	placeWith := func(p place.Placer) []int {
		pl, err := p.Place(testCloud(), circ)
		if err != nil {
			t.Fatal(err)
		}
		return pl.QubitToQPU
	}
	at := func(prob float64) []int {
		cfg := place.DefaultConfig()
		cfg.Model.SuccessProb = prob
		return placeWith(place.NewCloudQC(cfg))
	}
	want := at(0.9)
	if slices.Equal(want, at(0.3)) {
		t.Fatal("qft_n160 places the same at p = 0.9 and 0.3: the test cannot tell them apart")
	}
	if got := placeWith(ct.cfg.Placer); !slices.Equal(got, want) {
		t.Fatalf("default placer put qft_n160 at %v, want the p = 0.9 placement %v", got, want)
	}
}
