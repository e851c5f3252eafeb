package circuit

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 qubits should panic")
		}
	}()
	New("bad", 0)
}

func TestAppendAndCounts(t *testing.T) {
	c := New("test", 3)
	c.Append(H(0), CX(0, 1), RZ(1, 0.5), CX(1, 2), M(2))
	oneQ, twoQ, ms := c.GateCount()
	if oneQ != 2 || twoQ != 2 || ms != 1 {
		t.Fatalf("GateCount = (%d,%d,%d), want (2,2,1)", oneQ, twoQ, ms)
	}
	if c.TwoQubitGateCount() != 2 {
		t.Fatalf("TwoQubitGateCount = %d, want 2", c.TwoQubitGateCount())
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5", c.Len())
	}
}

func TestAppendOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range qubit should panic")
		}
	}()
	New("test", 2).Append(H(2))
}

func TestTwoQubitGateSameQubitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CX(1,1) should panic")
		}
	}()
	CX(1, 1)
}

func TestDepthGHZChain(t *testing.T) {
	// H q0; CX(0,1); CX(1,2); CX(2,3) -> depth 4; +measure layer -> 5.
	c := New("ghz4", 4)
	c.Append(H(0), CX(0, 1), CX(1, 2), CX(2, 3))
	if d := c.Depth(); d != 4 {
		t.Fatalf("Depth = %d, want 4", d)
	}
	c.MeasureAll()
	if d := c.Depth(); d != 5 {
		t.Fatalf("Depth with measures = %d, want 5", d)
	}
}

func TestDepthParallelGates(t *testing.T) {
	// Independent H gates all fit in one layer.
	c := New("hs", 4)
	for q := 0; q < 4; q++ {
		c.Append(H(q))
	}
	if d := c.Depth(); d != 1 {
		t.Fatalf("Depth = %d, want 1", d)
	}
}

func TestDepthEmptyCircuit(t *testing.T) {
	if d := New("empty", 2).Depth(); d != 0 {
		t.Fatalf("Depth(empty) = %d, want 0", d)
	}
}

// TestCountsMemoInvalidation: Append after a Depth or
// TwoQubitGateCount read must invalidate the memo, so both keep
// matching a fresh recount (a Clone starts with an empty memo).
func TestCountsMemoInvalidation(t *testing.T) {
	c := New("c", 4)
	c.Append(H(0), CX(0, 1))
	steps := [][]Gate{{CX(1, 2), CX(2, 3)}, {H(3)}, {M(0), CX(0, 3)}}
	for i, gs := range steps {
		_, _ = c.Depth(), c.TwoQubitGateCount()
		c.Append(gs...)
		fresh := c.Clone()
		if got, want := c.Depth(), fresh.Depth(); got != want {
			t.Fatalf("step %d: Depth = %d after Append, fresh recount %d", i, got, want)
		}
		if got, want := c.TwoQubitGateCount(), fresh.TwoQubitGateCount(); got != want {
			t.Fatalf("step %d: TwoQubitGateCount = %d after Append, fresh recount %d", i, got, want)
		}
	}
	if d, n := c.Depth(), c.TwoQubitGateCount(); d != 6 || n != 4 {
		t.Fatalf("final Depth, TwoQubitGateCount = %d, %d; want 6, 4", d, n)
	}
}

// TestCountsConcurrentReaders: workloads share one Circuit across jobs
// and goroutines, so first reads of the count memo may race; run under
// -race this checks the fill is synchronized.
func TestCountsConcurrentReaders(t *testing.T) {
	c := New("c", 3)
	c.Append(H(0), CX(0, 1), CX(1, 2), M(2))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d, n := c.Depth(), c.TwoQubitGateCount(); d != 4 || n != 2 {
				t.Errorf("Depth, TwoQubitGateCount = %d, %d; want 4, 2", d, n)
			}
		}()
	}
	wg.Wait()
}

func TestInteractionGraphWeights(t *testing.T) {
	c := New("test", 3)
	c.Append(CX(0, 1), CX(1, 0), CX(1, 2), H(0))
	ig := c.InteractionGraph()
	if w := ig.Weight(0, 1); w != 2 {
		t.Fatalf("D_01 = %v, want 2 (direction-insensitive)", w)
	}
	if w := ig.Weight(1, 2); w != 1 {
		t.Fatalf("D_12 = %v, want 1", w)
	}
	if ig.HasEdge(0, 2) {
		t.Fatal("no interaction between 0 and 2 expected")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New("orig", 2)
	c.Append(H(0))
	cp := c.Clone()
	cp.Append(CX(0, 1))
	if c.Len() != 1 {
		t.Fatal("mutating clone affected original")
	}
	if cp.Len() != 2 || cp.Name != "orig" {
		t.Fatalf("clone wrong: len=%d name=%q", cp.Len(), cp.Name)
	}
}

func TestGateString(t *testing.T) {
	if s := CX(0, 1).String(); s != "cx q0,q1" {
		t.Fatalf("String = %q", s)
	}
	if s := H(3).String(); s != "h q3" {
		t.Fatalf("String = %q", s)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Single: "1q", Two: "2q", Measure: "measure", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestGateOn(t *testing.T) {
	g := CX(2, 5)
	if !g.On(2) || !g.On(5) || g.On(3) {
		t.Fatal("On() wrong for CX(2,5)")
	}
	h := H(1)
	if !h.On(1) || h.On(-1) {
		t.Fatal("On() wrong for H(1); must not match sentinel -1")
	}
}

func TestAllGateConstructors(t *testing.T) {
	oneQ := []struct {
		g    Gate
		name string
	}{
		{H(0), "h"}, {X(0), "x"}, {Y(0), "y"}, {Z(0), "z"},
		{S(0), "s"}, {T(0), "t"}, {Tdg(0), "tdg"},
		{RX(0, 1), "rx"}, {RY(0, 1), "ry"}, {RZ(0, 1), "rz"},
	}
	for _, tc := range oneQ {
		if tc.g.Name != tc.name || tc.g.Kind != Single || tc.g.Arity() != 1 {
			t.Fatalf("constructor %s wrong: %+v", tc.name, tc.g)
		}
		if tc.g.Qubits[1] != -1 {
			t.Fatalf("%s should carry sentinel second qubit", tc.name)
		}
	}
	twoQ := []struct {
		g    Gate
		name string
	}{
		{CX(0, 1), "cx"}, {CZ(0, 1), "cz"}, {CP(0, 1, 0.5), "cp"}, {Swap(0, 1), "swap"},
	}
	for _, tc := range twoQ {
		if tc.g.Name != tc.name || tc.g.Kind != Two || tc.g.Arity() != 2 {
			t.Fatalf("constructor %s wrong: %+v", tc.name, tc.g)
		}
	}
	if m := M(3); m.Kind != Measure || m.Arity() != 1 || m.Name != "measure" {
		t.Fatalf("measure constructor wrong: %+v", m)
	}
	if CP(0, 1, 0.5).Param != 0.5 || RX(0, 0.7).Param != 0.7 {
		t.Fatal("parameters not preserved")
	}
}

// Property: depth never exceeds gate count and is at least
// ceil(gates/numQubits) for one-qubit-gate-only circuits.
func TestQuickDepthBounds(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%5+5)%5 + 2 // 2..8 qubits, seed-derived
		c := New("rand", n)
		g := int(seed % 40)
		if g < 0 {
			g = -g
		}
		for i := 0; i < g; i++ {
			c.Append(H(i % n))
		}
		d := c.Depth()
		if d > c.Len() {
			return false
		}
		if n > 0 && d < (g+n-1)/n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
