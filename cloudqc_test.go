package cloudqc

import (
	"math"
	"strings"
	"testing"
)

func TestQuickstartPipeline(t *testing.T) {
	cl := NewRandomCloud(20, 0.3, 20, 5, 1)
	circ, err := BuildCircuit("knn_n67")
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlaceAndSchedule(cl, circ, DefaultModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT <= 0 || res.RemoteGates <= 0 || res.CommCost <= 0 {
		t.Fatalf("degenerate pipeline result: %+v", res)
	}
	if err := res.Placement.Validate(cl); err != nil {
		t.Fatal(err)
	}
}

func TestHandBuiltCircuit(t *testing.T) {
	c := NewCircuit("bell", 2)
	c.Append(H(0), CX(0, 1), M(0), M(1))
	if c.TwoQubitGateCount() != 1 {
		t.Fatal("hand-built circuit wrong")
	}
	src := WriteQASM(c)
	back, err := ParseQASM("bell", src)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatal("QASM round trip through public API failed")
	}
}

func TestCircuitNamesIncludeTable2(t *testing.T) {
	names := CircuitNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"qft_n160", "qugan_n111", "multiplier_n75", "ghz_n127"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("CircuitNames missing %s: %v", want, names)
		}
	}
}

func TestClusterThroughPublicAPI(t *testing.T) {
	cl := NewRandomCloud(20, 0.3, 20, 5, 2)
	cluster, err := NewCluster(ClusterConfig{Cloud: cl, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g127, err := BuildCircuit("ghz_n127")
	if err != nil {
		t.Fatal(err)
	}
	knn, err := BuildCircuit("knn_n67")
	if err != nil {
		t.Fatal(err)
	}
	results, err := cluster.Run([]*Job{
		{ID: 0, Circuit: g127},
		{ID: 1, Circuit: knn},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Failed || r.JCT <= 0 {
			t.Fatalf("job %d: %+v", r.Job.ID, r)
		}
	}
}

func TestOnlineThroughPublicAPI(t *testing.T) {
	jobs, err := OnlineJobs(MixedWorkload(), "bursty", 6, 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{Cloud: NewRandomCloud(20, 0.3, 20, 5, 2), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	results, err := cluster.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var jcts, waits []float64
	failed := 0
	makespan := 0.0
	for _, r := range results {
		if r.Failed {
			failed++
			continue
		}
		jcts = append(jcts, r.JCT)
		waits = append(waits, r.WaitTime)
		if r.Finished > makespan {
			makespan = r.Finished
		}
	}
	s := AggregateOnline(jcts, waits, failed, makespan)
	if s.Completed == 0 || s.Throughput <= 0 || s.P99JCT < s.P50JCT {
		t.Fatalf("online stats = %+v", s)
	}
	if st := cluster.RunStats(); st.Rounds <= 0 || st.Events <= 0 {
		t.Fatalf("run stats = %+v", st)
	}
}

func TestAllPlacersExposed(t *testing.T) {
	cl := NewRandomCloud(20, 0.3, 20, 5, 3)
	circ, err := BuildCircuit("ising_n66")
	if err != nil {
		t.Fatal(err)
	}
	placers := []Placer{
		NewPlacer(DefaultPlacerConfig()),
		NewBFSPlacer(DefaultPlacerConfig()),
		NewRandomPlacer(1),
		NewAnnealerPlacer(1),
		NewGeneticPlacer(1),
	}
	names := map[string]bool{}
	for _, p := range placers {
		pl, err := p.Place(cl, circ)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := pl.Validate(cl); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		names[p.Name()] = true
	}
	for _, want := range []string{"CloudQC", "CloudQC-BFS", "Random", "SA", "GA"} {
		if !names[want] {
			t.Fatalf("missing placer %s", want)
		}
	}
}

func TestPoliciesExposed(t *testing.T) {
	cl := NewRandomCloud(10, 0.3, 20, 5, 4)
	circ, err := BuildCircuit("ising_n34")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacer(DefaultPlacerConfig()).Place(cl, circ)
	if err != nil {
		t.Fatal(err)
	}
	dag := BuildRemoteDAG(circ, cl, pl.QubitToQPU, DefaultModel().Latency)
	for _, p := range []Policy{PolicyCloudQC(), PolicyGreedy(), PolicyAverage(), PolicyRandom()} {
		res, err := Schedule(dag, cl, DefaultModel(), p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.JCT <= 0 {
			t.Fatalf("%s: JCT = %v", p.Name(), res.JCT)
		}
	}
}

func TestIntensityExposed(t *testing.T) {
	a, err := BuildCircuit("ghz_n127")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCircuit("qft_n160")
	if err != nil {
		t.Fatal(err)
	}
	if Intensity(b) <= Intensity(a) {
		t.Fatal("qft_n160 must out-rank ghz_n127 on the intensity metric")
	}
}

func TestWorkloadsExposed(t *testing.T) {
	ws := Workloads()
	if len(ws) != 4 {
		t.Fatalf("workloads = %d, want 4", len(ws))
	}
	jobs, err := MixedWorkload().Batch(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Fatalf("batch = %d", len(jobs))
	}
}

func TestCustomTopologyCloud(t *testing.T) {
	topo := RandomTopology(8, 0.4, 5)
	cl := NewCloud(topo, 20, 5)
	if cl.NumQPUs() != 8 {
		t.Fatalf("NumQPUs = %d", cl.NumQPUs())
	}
}

func TestSimulateThroughPublicAPI(t *testing.T) {
	c := NewCircuit("bell", 2)
	c.Append(H(0), CX(0, 1), M(0), M(1))
	state, outcomes := Simulate(c, 3)
	if state.NumQubits() != 2 {
		t.Fatalf("NumQubits = %d", state.NumQubits())
	}
	if outcomes[0] != outcomes[1] {
		t.Fatalf("bell outcomes disagree: %v", outcomes)
	}
}

func TestScheduleMultipathThroughPublicAPI(t *testing.T) {
	cl := NewRandomCloud(12, 0.15, 20, 5, 6)
	circ, err := BuildCircuit("ising_n34")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewRandomPlacer(2).Place(cl, circ)
	if err != nil {
		t.Fatal(err)
	}
	dag := BuildRemoteDAG(circ, cl, pl.QubitToQPU, DefaultModel().Latency)
	res, err := ScheduleMultipath(dag, cl, DefaultModel(), PolicyCloudQC(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT <= 0 {
		t.Fatalf("JCT = %v", res.JCT)
	}
}

func TestScheduleWithFidelityThroughPublicAPI(t *testing.T) {
	cl := NewRandomCloud(12, 0.3, 20, 5, 6)
	circ, err := BuildCircuit("ising_n34")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacer(DefaultPlacerConfig()).Place(cl, circ)
	if err != nil {
		t.Fatal(err)
	}
	dag := BuildRemoteDAG(circ, cl, pl.QubitToQPU, DefaultModel().Latency)
	fm := DefaultFidelityModel()
	fm.LinkFidelity = 0.85 // force purification at threshold 0.9
	res, err := ScheduleWithFidelity(dag, cl, fm, PolicyCloudQC(), 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Schedule(dag, cl, fm.Model, PolicyCloudQC(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT < plain.JCT {
		t.Fatalf("purified JCT %v beat plain %v", res.JCT, plain.JCT)
	}
}

func TestMigratingDAGThroughPublicAPI(t *testing.T) {
	cl := NewRandomCloud(20, 0.3, 20, 5, 1)
	circ, err := BuildCircuit("adder_n64")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacer(DefaultPlacerConfig()).Place(cl, circ)
	if err != nil {
		t.Fatal(err)
	}
	lat := DefaultModel().Latency
	static := BuildRemoteDAG(circ, cl, pl.QubitToQPU, lat)
	plan, stats := BuildMigratingDAG(circ, cl, pl.QubitToQPU, lat)
	if stats.Teleports == 0 || plan.Len() >= static.Len() {
		t.Fatalf("migration plan should shrink the DAG: %d vs %d (%d teleports)",
			plan.Len(), static.Len(), stats.Teleports)
	}
	res, err := Schedule(plan, cl, DefaultModel(), PolicyCloudQC(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT <= 0 {
		t.Fatalf("JCT = %v", res.JCT)
	}
}

func TestUtilizationRecorderThroughPublicAPI(t *testing.T) {
	rec := NewUtilizationRecorder(0)
	cl := NewRandomCloud(20, 0.3, 20, 5, 9)
	cluster, err := NewCluster(ClusterConfig{Cloud: cl, Seed: 9, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := BuildCircuit("ghz_n127")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run([]*Job{{ID: 0, Circuit: circ}}); err != nil {
		t.Fatal(err)
	}
	if rec.PeakUtilization() <= 0 {
		t.Fatal("recorder saw no utilization")
	}
}

func TestSLOThroughPublicAPI(t *testing.T) {
	mix := DefaultTenantMix(MixedWorkload(), 2, "poisson", 1500)
	if len(mix) != 3 {
		t.Fatalf("mix = %+v", mix)
	}
	jobs, err := MultiTenantJobs(mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := ParseAdmissionMode("wfq")
	if err != nil || mode != WFQMode {
		t.Fatalf("ParseAdmissionMode = %v, %v", mode, err)
	}
	cluster, err := NewCluster(ClusterConfig{
		Cloud:  NewRandomCloud(20, 0.3, 20, 5, 2),
		Policy: PolicyTenantWeighted(),
		Mode:   mode,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := cluster.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := AggregateSLO(Outcomes(results))
	if len(s.PerTenant) != 3 {
		t.Fatalf("per-tenant rows = %+v", s.PerTenant)
	}
	if !(s.Attainment >= 0 && s.Attainment <= 1) {
		t.Fatalf("attainment = %v", s.Attainment)
	}
	if !(s.Fairness > 0 && s.Fairness <= 1+1e-12) {
		t.Fatalf("fairness = %v", s.Fairness)
	}
	// EDF through the public constants works too.
	edf, err := NewCluster(ClusterConfig{Cloud: NewRandomCloud(20, 0.3, 20, 5, 2), Mode: EDFMode, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	jobs2, err := MultiTenantJobs(mix, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edf.Run(jobs2); err != nil {
		t.Fatal(err)
	}
}

// TestStepUntilNaNKeepsClock: a NaN step is rejected and leaves the
// virtual clock where it was, so a later earlier step cannot move the
// clock back and a late submission still arrives at the current time.
// Before the check, StepUntil(NaN) returned nil with Now() at NaN, and
// StepUntil(50) then moved the clock from 100 back to 50.
func TestStepUntilNaNKeepsClock(t *testing.T) {
	type stepper interface {
		StepUntil(float64) error
		Submit(*Job) error
		Now() float64
		Drain() ([]*JobResult, error)
	}
	cluster, err := NewCluster(ClusterConfig{Cloud: NewRandomCloud(8, 0.3, 20, 5, 2), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewFederation(FederationConfig{
		Shard:  ClusterConfig{Seed: 2},
		Clouds: []*Cloud{NewRandomCloud(8, 0.3, 20, 5, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ghz, err := BuildCircuit("qft_n29")
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]stepper{"cluster": cluster, "federation": fed} {
		if err := s.StepUntil(100); err != nil {
			t.Fatal(err)
		}
		if err := s.StepUntil(math.NaN()); err == nil {
			t.Fatalf("%s: StepUntil(NaN) returned nil", name)
		}
		if now := s.Now(); now != 100 {
			t.Fatalf("%s: Now() = %v after StepUntil(NaN), want 100", name, now)
		}
		if err := s.Submit(&Job{ID: 0, Circuit: ghz, Arrival: 5}); err != nil {
			t.Fatal(err)
		}
		if err := s.StepUntil(50); err != nil {
			t.Fatal(err)
		}
		if now := s.Now(); now != 100 {
			t.Fatalf("%s: Now() = %v after StepUntil(50), want 100", name, now)
		}
		res, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Failed || res[0].PlacedAt < 100 {
			t.Fatalf("%s: results %+v, want the job placed at or after 100", name, res)
		}
	}
}
