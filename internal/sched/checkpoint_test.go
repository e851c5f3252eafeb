package sched

import (
	"math/rand"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
)

// sureModel returns a model whose EPR attempts always succeed, so
// checkpoint tests drive execution deterministically.
func sureModel() epr.Model {
	m := epr.DefaultModel()
	m.SuccessProb = 1
	return m
}

// driveRound runs one EPR round granting every ready node one pair.
func driveRound(s *JobState, t float64, m epr.Model, rng *rand.Rand) {
	for _, u := range s.AppendReady(nil, t) {
		s.Attempt(u, 1, m.RoundSuccess(1), t, m, rng, nil)
	}
}

func TestCheckpointableDetectsInFlight(t *testing.T) {
	// A 2-hop remote gate: qubits on QPUs 0 and 2 of a path topology.
	cl := cloud.New(graph.Path(3), 10, 5)
	c := circuit.New("hop2", 2)
	c.Append(circuit.CX(0, 1))
	d := BuildRemoteDAG(c, cl, []int{0, 2}, epr.DefaultLatency())
	if d.Len() != 1 || d.Nodes[0].Hops() != 2 {
		t.Fatalf("setup: len=%d hops=%d, want 1 node with 2 hops", d.Len(), d.Nodes[0].Hops())
	}
	s := NewJobState(d, 0)
	if !s.Checkpointable() {
		t.Fatal("fresh state must be checkpointable")
	}
	// A fully failed round leaves nothing banked: still checkpointable.
	s.attempted[0] = true
	if !s.Checkpointable() {
		t.Fatal("attempted-but-unprogressed state must be checkpointable")
	}
	// One of two hops entangled: in-flight, not checkpointable.
	s.hopsLeft[0] = 1
	if s.Checkpointable() {
		t.Fatal("partially entangled multi-hop gate must block checkpointing")
	}
	// Gate finished: checkpointable again.
	s.hopsLeft[0] = 0
	if !s.Checkpointable() {
		t.Fatal("completed state must be checkpointable")
	}
}

func TestCheckpointRoundtripSamePlacement(t *testing.T) {
	// Two dependent remote gates on the same qubit pair.
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("chain", 2)
	c.Append(circuit.CX(0, 1), circuit.CX(0, 1))
	d := BuildRemoteDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	if d.Len() != 2 {
		t.Fatalf("setup: %d remote gates, want 2", d.Len())
	}
	m := sureModel()
	rng := rand.New(rand.NewSource(1))
	s1 := NewJobState(d, 0)
	driveRound(s1, 0, m, rng)
	if s1.remaining != 1 {
		t.Fatalf("after one sure round remaining = %d, want 1", s1.remaining)
	}
	if !s1.Checkpointable() {
		t.Fatal("round boundary must be checkpointable")
	}
	cp := s1.Checkpoint()
	if len(cp.Done) != 1 || cp.Done[0] != d.Nodes[0].GateIndex {
		t.Fatalf("Checkpoint().Done = %v, want [%d]", cp.Done, d.Nodes[0].GateIndex)
	}

	// Resume onto a fresh state for the same placement at a later time.
	s2 := new(JobState)
	s2.Reinit(d, nil, 100)
	s2.ApplyCheckpoint(cp, 100)
	if s2.remaining != s1.remaining {
		t.Fatalf("resumed remaining = %d, want %d", s2.remaining, s1.remaining)
	}
	if s2.hopsLeft[0] != 0 {
		t.Fatal("checkpointed node must be complete after ApplyCheckpoint")
	}
	// The successor must have been unblocked and the job must run dry.
	for i := 0; i < 100 && !s2.Done(); i++ {
		at, ok := s2.NextEnableTime(100)
		if !ok {
			t.Fatalf("resumed job stalled with %d remaining", s2.remaining)
		}
		driveRound(s2, at, m, rng)
	}
	if !s2.Done() {
		t.Fatal("resumed job never completed")
	}
	if jct := s2.JCT(); jct <= 100 {
		t.Fatalf("resumed JCT = %v, want > resume time 100", jct)
	}
}

func TestCheckpointPlacementIndependent(t *testing.T) {
	// CX(0,1) then CX(1,2): placement A makes only the first gate
	// remote, placement B only the second. A checkpoint taken under one
	// placement must replay correctly onto the other's remote DAG, keyed
	// by circuit gate index rather than DAG node id.
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("xover", 3)
	c.Append(circuit.CX(0, 1), circuit.CX(1, 2))
	dagA := BuildRemoteDAG(c, cl, []int{0, 1, 1}, epr.DefaultLatency())
	dagB := BuildRemoteDAG(c, cl, []int{0, 0, 1}, epr.DefaultLatency())
	if dagA.Len() != 1 || dagB.Len() != 1 {
		t.Fatalf("setup: lenA=%d lenB=%d, want 1 and 1", dagA.Len(), dagB.Len())
	}
	m := sureModel()
	rng := rand.New(rand.NewSource(1))

	// Complete gate 0 under A and checkpoint.
	sA := NewJobState(dagA, 0)
	driveRound(sA, 0, m, rng)
	if !sA.Done() {
		t.Fatal("placement A's single remote gate should finish in one sure round")
	}
	cp := sA.Checkpoint()
	if len(cp.Done) != 1 || cp.Done[0] != 0 {
		t.Fatalf("Checkpoint().Done = %v, want [0]", cp.Done)
	}

	// Resume under B: gate 0 is local there (no node to mark), gate 1 is
	// remote and still outstanding.
	sB := new(JobState)
	sB.Reinit(dagB, nil, 50)
	sB.ApplyCheckpoint(cp, 50)
	if sB.remaining != 1 {
		t.Fatalf("resumed-under-B remaining = %d, want 1 (gate 1 must re-run remotely)", sB.remaining)
	}
	if sB.hopsLeft[0] == 0 {
		t.Fatal("gate 1's node must not be marked done by gate 0's checkpoint entry")
	}

	// And the reverse direction: a checkpoint of gate 1 under B marks
	// B's gate-index-1 node done under a fresh B state.
	for i := 0; i < 100 && !sB.Done(); i++ {
		at, ok := sB.NextEnableTime(50)
		if !ok {
			t.Fatalf("resumed-under-B job stalled with %d remaining", sB.remaining)
		}
		driveRound(sB, at, m, rng)
	}
	cpB := sB.Checkpoint()
	if len(cpB.Done) != 1 || cpB.Done[0] != 1 {
		t.Fatalf("B checkpoint Done = %v, want [1]", cpB.Done)
	}
	sB2 := new(JobState)
	sB2.Reinit(dagB, nil, 60)
	sB2.ApplyCheckpoint(cpB, 60)
	if !sB2.Done() {
		t.Fatal("replaying B's own checkpoint must complete the job")
	}
}
