package sched

import (
	"math/rand"
	"strings"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
)

func runFig3(t *testing.T, p Policy, seed int64) Result {
	t.Helper()
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	res, err := Run(d, cl, epr.DefaultModel(), p, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCompletesAllGates(t *testing.T) {
	res := runFig3(t, CloudQCPolicy{}, 1)
	if res.RemoteGates != 6 {
		t.Fatalf("RemoteGates = %d", res.RemoteGates)
	}
	if res.JCT <= 0 || res.Rounds <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// At minimum the critical path (3 gates) must serialize: each needs
	// one EPR round (10) and execution; JCT > 30.
	if res.JCT < 30 {
		t.Fatalf("JCT = %v implausibly small", res.JCT)
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	a := runFig3(t, CloudQCPolicy{}, 42)
	b := runFig3(t, CloudQCPolicy{}, 42)
	if a.JCT != b.JCT || a.Rounds != b.Rounds {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRunLocalOnlyJob(t *testing.T) {
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("local", 2)
	c.Append(circuit.H(0), circuit.CX(0, 1), circuit.M(1))
	d := BuildRemoteDAG(c, cl, []int{0, 0}, epr.DefaultLatency())
	res, err := Run(d, cl, epr.DefaultModel(), CloudQCPolicy{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Fatalf("local job needed %d EPR rounds", res.Rounds)
	}
	if res.JCT < 6.099 || res.JCT > 6.101 {
		t.Fatalf("JCT = %v, want 6.1", res.JCT)
	}
}

func TestRunRejectsInvalidModel(t *testing.T) {
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	bad := epr.DefaultModel()
	bad.SuccessProb = 0
	if _, err := Run(d, cl, bad, CloudQCPolicy{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid model should error")
	}
}

// TestRunRejectsZeroCommCloud covers the communication-qubit check every
// single-job entry point shares.
func TestRunRejectsZeroCommCloud(t *testing.T) {
	cl := cloud.New(graph.Path(2), 10, 0)
	c := circuit.New("r", 2)
	c.Append(circuit.CX(0, 1))
	d := BuildRemoteDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	for _, e := range singleJobEntries {
		t.Run(e.name, func(t *testing.T) {
			_, err := e.run(d, cl, CloudQCPolicy{}, rand.New(rand.NewSource(1)))
			if err == nil || !strings.Contains(err.Error(), "no communication qubits") {
				t.Fatalf("err = %v, want zero-comm rejection", err)
			}
		})
	}
	// The comm check precedes RunFidelity's per-node purification check.
	unreachable := epr.DefaultFidelityModel()
	unreachable.LinkFidelity = 0.51
	unreachable.Threshold = 0.999
	_, err := RunFidelity(d, cl, unreachable, CloudQCPolicy{}, rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "no communication qubits") {
		t.Fatalf("err = %v, want zero-comm rejection before the purification check", err)
	}
}

func TestHigherEPRProbabilityShortensJCT(t *testing.T) {
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	jct := func(p float64) float64 {
		m := epr.DefaultModel()
		m.SuccessProb = p
		total := 0.0
		const reps = 30
		for i := int64(0); i < reps; i++ {
			res, err := Run(d, cl, m, CloudQCPolicy{}, rand.New(rand.NewSource(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += res.JCT
		}
		return total / reps
	}
	low, high := jct(0.1), jct(0.9)
	if high >= low {
		t.Fatalf("JCT(p=0.9) = %v should beat JCT(p=0.1) = %v", high, low)
	}
}

func TestMoreCommQubitsShortenJCT(t *testing.T) {
	// Wide front layer: many parallel remote gates between two QPUs.
	c := circuit.New("wide", 16)
	for i := 0; i < 8; i++ {
		c.Append(circuit.CX(i, 8+i))
	}
	assign := make([]int, 16)
	for i := 8; i < 16; i++ {
		assign[i] = 1
	}
	jct := func(comm int) float64 {
		cl := cloud.New(graph.Path(2), 16, comm)
		d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
		total := 0.0
		const reps = 30
		for i := int64(0); i < reps; i++ {
			res, err := Run(d, cl, epr.DefaultModel(), AveragePolicy{}, rand.New(rand.NewSource(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += res.JCT
		}
		return total / reps
	}
	few, many := jct(2), jct(10)
	if many >= few {
		t.Fatalf("JCT(comm=10) = %v should beat JCT(comm=2) = %v", many, few)
	}
}

func TestJobStateReadyRespectsLag(t *testing.T) {
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("lagged", 2)
	c.Append(circuit.H(0), circuit.CX(0, 1)) // lag 0.1 before the remote gate
	d := BuildRemoteDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	s := NewJobState(d, 0)
	if len(s.AppendReady(nil, 0)) != 0 {
		t.Fatal("gate should not be ready before its local lag elapses")
	}
	if len(s.AppendReady(nil, 0.1)) != 1 {
		t.Fatal("gate should be ready once lag has elapsed")
	}
}

func TestJobStateStartOffset(t *testing.T) {
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	s := NewJobState(d, 100)
	if len(s.AppendReady(nil, 50)) != 0 {
		t.Fatal("no gate ready before the job's start time")
	}
	if len(s.AppendReady(nil, 100)) == 0 {
		t.Fatal("front layer ready at start time")
	}
}

func TestJobStateSuccessorsUnlockAfterFinish(t *testing.T) {
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	m := epr.Model{Latency: epr.DefaultLatency(), SuccessProb: 1} // always succeed
	s := NewJobState(d, 0)
	rng := rand.New(rand.NewSource(1))
	for _, u := range s.AppendReady(nil, 0) {
		s.Attempt(u, 1, m.RoundSuccess(1), 0, m, rng, nil)
	}
	// Gates 0 and 1 finish at 10 + 1 + 5 = 16; successors are not ready
	// at time 10 but are ready at 16.
	if got := s.AppendReady(nil, 10); len(got) != 0 {
		t.Fatalf("Ready(10) = %v, want none before finish", got)
	}
	ready := s.AppendReady(nil, 16)
	if len(ready) != 3 { // gates 2, 3, 5 unlocked
		t.Fatalf("Ready(16) = %v, want 3 gates", ready)
	}
}

func TestJCTIncludesTail(t *testing.T) {
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("tailed", 2)
	c.Append(circuit.CX(0, 1), circuit.M(0))
	d := BuildRemoteDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	m := epr.Model{Latency: epr.DefaultLatency(), SuccessProb: 1}
	res, err := Run(d, cl, m, CloudQCPolicy{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// One round (10) + gate (1) + measure (5) + tail measure (5) = 21.
	if res.JCT < 20.999 || res.JCT > 21.001 {
		t.Fatalf("JCT = %v, want 21", res.JCT)
	}
}

func TestMultiHopTakesLonger(t *testing.T) {
	c := circuit.New("hop", 2)
	c.Append(circuit.CX(0, 1))
	m := epr.Model{Latency: epr.DefaultLatency(), SuccessProb: 1}
	cl := cloud.New(graph.Path(3), 10, 5)
	near := BuildRemoteDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	far := BuildRemoteDAG(c, cl, []int{0, 2}, epr.DefaultLatency())
	rn, err := Run(near, cl, m, CloudQCPolicy{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(far, cl, m, CloudQCPolicy{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rf.JCT <= rn.JCT {
		t.Fatalf("2-hop JCT %v should exceed 1-hop %v", rf.JCT, rn.JCT)
	}
}
