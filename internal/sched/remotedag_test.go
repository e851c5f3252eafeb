package sched

import (
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
)

// fig3Setup reproduces the paper's Fig. 3 example: a 13-qubit circuit
// spanning three QPUs (A = 0, B = 1, C = 2 on a path topology) with the
// remote gates the text discusses. Qubits 0-4 -> A, 5-8 -> B, 9-12 -> C.
func fig3Setup() (*circuit.Circuit, *cloud.Cloud, []int) {
	c := circuit.New("fig3", 13)
	c.Append(
		circuit.CX(0, 5),  // remote 0: A-B
		circuit.CX(1, 6),  // remote 1: A-B (parallel with 0)
		circuit.CX(6, 12), // remote 2: B-C, depends on 1 via q6
		circuit.CX(0, 7),  // remote 3: A-B, depends on 0 via q0
		circuit.CX(6, 11), // remote 4: B-C, depends on 2 via q6
		circuit.CX(1, 8),  // remote 5: A-B, depends on 1 via q1
	)
	cl := cloud.New(graph.Path(3), 5, 5)
	assign := make([]int, 13)
	for q := 0; q < 13; q++ {
		switch {
		case q < 5:
			assign[q] = 0
		case q < 9:
			assign[q] = 1
		default:
			assign[q] = 2
		}
	}
	return c, cl, assign
}

func TestFig3RemoteDAGStructure(t *testing.T) {
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	if d.Len() != 6 {
		t.Fatalf("remote gates = %d, want 6", d.Len())
	}
	// Front layer: gates 0 and 1 (no remote predecessors).
	for i, p := range d.Preds {
		if root := i < 2; root != (len(p) == 0) {
			t.Fatalf("Preds(%d) = %v; only gates 0 and 1 have none", i, p)
		}
	}
	// Gate 2 (q6,q12) depends on gate 1 (q1,q6).
	if len(d.Preds[2]) != 1 || d.Preds[2][0] != 1 {
		t.Fatalf("Preds(2) = %v, want [1]", d.Preds[2])
	}
	// Gate 3 (q0,q7) depends on gate 0 (q0,q5).
	if len(d.Preds[3]) != 1 || d.Preds[3][0] != 0 {
		t.Fatalf("Preds(3) = %v, want [0]", d.Preds[3])
	}
	// Gate 4 (q6,q11) depends on gate 2.
	if len(d.Preds[4]) != 1 || d.Preds[4][0] != 2 {
		t.Fatalf("Preds(4) = %v, want [2]", d.Preds[4])
	}
}

func TestFig3Priorities(t *testing.T) {
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	p := d.Priorities()
	// Chain 1 -> 2 -> 4 gives gate 1 priority 2; gate 0 -> 3 gives
	// priority 1; leaves 3, 4, 5 have priority 0.
	if p[1] != 2 {
		t.Fatalf("priority(1) = %d, want 2 (critical path)", p[1])
	}
	if p[0] != 1 {
		t.Fatalf("priority(0) = %d, want 1", p[0])
	}
	for _, leaf := range []int{3, 4, 5} {
		if p[leaf] != 0 {
			t.Fatalf("priority(%d) = %d, want 0", leaf, p[leaf])
		}
	}
	if d.CriticalPathLen() != 3 {
		t.Fatalf("critical path = %d, want 3", d.CriticalPathLen())
	}
}

func TestRemoteGatePaths(t *testing.T) {
	c, cl, assign := fig3Setup()
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	// A-B gates span 1 hop; B-C gates span 1 hop; none cross A-C here.
	for _, n := range d.Nodes {
		if n.Hops() != 1 {
			t.Fatalf("node %d hops = %d, want 1", n.ID, n.Hops())
		}
	}
	// A multi-hop gate: qubit on A interacting with qubit on C.
	c2 := circuit.New("hop2", 2)
	c2.Append(circuit.CX(0, 1))
	d2 := BuildRemoteDAG(c2, cl, []int{0, 2}, epr.DefaultLatency())
	if d2.Nodes[0].Hops() != 2 {
		t.Fatalf("A-C gate hops = %d, want 2", d2.Nodes[0].Hops())
	}
}

func TestLagAccumulatesLocalGates(t *testing.T) {
	cl := cloud.New(graph.Path(2), 5, 5)
	c := circuit.New("lag", 2)
	c.Append(
		circuit.H(0),       // 0.1 local
		circuit.H(0),       // 0.1 local
		circuit.CX(0, 1),   // remote
		circuit.RZ(1, 0.5), // 0.1 local after
		circuit.CX(0, 1),   // remote again
	)
	d := BuildRemoteDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	if d.Len() != 2 {
		t.Fatalf("remote gates = %d", d.Len())
	}
	if lag := d.Nodes[0].Lag; lag < 0.199 || lag > 0.201 {
		t.Fatalf("first remote lag = %v, want 0.2", lag)
	}
	if lag := d.Nodes[1].Lag; lag < 0.099 || lag > 0.101 {
		t.Fatalf("second remote lag = %v, want 0.1 (RZ between)", lag)
	}
}

func TestLagThroughLocalTwoQubitGates(t *testing.T) {
	// A local CX merges dependency chains: remote gate after it must
	// depend on remote ancestors of both its qubits.
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("merge", 4)
	c.Append(
		circuit.CX(0, 2), // remote 0 (q0 on A, q2 on B)
		circuit.CX(2, 3), // local on B
		circuit.CX(1, 3), // remote 1 (q1 on A, q3 on B): depends on 0 via q3<-q2 chain
	)
	assign := []int{0, 0, 1, 1}
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	if d.Len() != 2 {
		t.Fatalf("remote gates = %d", d.Len())
	}
	if len(d.Preds[1]) != 1 || d.Preds[1][0] != 0 {
		t.Fatalf("Preds(1) = %v, want [0] through local CX", d.Preds[1])
	}
	if lag := d.Nodes[1].Lag; lag < 0.999 || lag > 1.001 {
		t.Fatalf("lag = %v, want 1 (local CX duration)", lag)
	}
}

func TestTailCapturesTrailingLocals(t *testing.T) {
	cl := cloud.New(graph.Path(2), 5, 5)
	c := circuit.New("tail", 2)
	c.Append(circuit.CX(0, 1), circuit.M(0), circuit.M(1))
	d := BuildRemoteDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	if d.Tail < 4.999 || d.Tail > 5.001 {
		t.Fatalf("Tail = %v, want 5 (measure)", d.Tail)
	}
}

func TestLocalOnlyPlacement(t *testing.T) {
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("local", 3)
	c.Append(circuit.H(0), circuit.CX(0, 1), circuit.CX(1, 2), circuit.M(2))
	d := BuildRemoteDAG(c, cl, []int{0, 0, 0}, epr.DefaultLatency())
	if d.Len() != 0 {
		t.Fatalf("single-QPU placement should have empty remote DAG")
	}
	// 0.1 + 1 + 1 + 5 = 7.1 critical path.
	if d.LocalOnly < 7.099 || d.LocalOnly > 7.101 {
		t.Fatalf("LocalOnly = %v, want 7.1", d.LocalOnly)
	}
}

func TestMergeSorted(t *testing.T) {
	got := mergeSorted([]int{1, 3, 5}, []int{2, 3, 6})
	want := []int{1, 2, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("mergeSorted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeSorted = %v, want %v", got, want)
		}
	}
	if out := mergeSorted(nil, []int{1}); len(out) != 1 || out[0] != 1 {
		t.Fatalf("mergeSorted(nil, [1]) = %v", out)
	}
	if out := mergeSorted([]int{2}, nil); len(out) != 1 || out[0] != 2 {
		t.Fatalf("mergeSorted([2], nil) = %v", out)
	}
}
