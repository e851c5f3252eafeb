package qlib

import "testing"

func TestRegistryComplete(t *testing.T) {
	// Every Table II circuit must be buildable.
	for _, row := range Table2() {
		c, err := Build(row.Name)
		if err != nil {
			t.Fatalf("Build(%q): %v", row.Name, err)
		}
		if c.Name != row.Name {
			t.Fatalf("circuit name %q != registry name %q", c.Name, row.Name)
		}
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := Build("no_such_circuit"); err == nil {
		t.Fatal("Build of unknown name should error")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild of unknown name should panic")
		}
	}()
	MustBuild("no_such_circuit")
}

func TestQubitCountsMatchTable2(t *testing.T) {
	for _, row := range Table2() {
		c := MustBuild(row.Name)
		if c.NumQubits() != row.Qubits {
			t.Errorf("%s: qubits = %d, want %d", row.Name, c.NumQubits(), row.Qubits)
		}
	}
}

// exactTwoQubit lists circuits whose generated 2-qubit gate count must
// equal Table II exactly; the rest are approximations documented in
// EXPERIMENTS.md and checked within 10% below.
var exactTwoQubit = map[string]bool{
	"ghz_n127": true, "bv_n70": true, "bv_n140": true,
	"ising_n34": true, "ising_n66": true, "ising_n98": true,
	"cat_n65": true, "cat_n130": true,
	"swap_test_n115": true, "knn_n67": true, "knn_n129": true,
	"qugan_n71": true, "qugan_n111": true, "cc_n64": true,
	"qft_n160": true, "qv_n100": true,
}

func TestTwoQubitCountsExact(t *testing.T) {
	for _, row := range Table2() {
		if !exactTwoQubit[row.Name] {
			continue
		}
		c := MustBuild(row.Name)
		if got := c.TwoQubitGateCount(); got != row.TwoQubit {
			t.Errorf("%s: 2q gates = %d, want %d exactly", row.Name, got, row.TwoQubit)
		}
	}
}

func TestTwoQubitCountsApproximate(t *testing.T) {
	for _, row := range Table2() {
		if exactTwoQubit[row.Name] || row.Name == "qft_n63" {
			continue // qft_n63's QASMBench artifact is a compiled outlier
		}
		c := MustBuild(row.Name)
		got := float64(c.TwoQubitGateCount())
		want := float64(row.TwoQubit)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s: 2q gates = %v, want within 10%% of %v", row.Name, got, want)
		}
	}
}

func TestDepthsExactWhereStructural(t *testing.T) {
	// These constructions yield Table II depths exactly.
	for _, name := range []string{"ghz_n127", "bv_n70", "bv_n140", "cat_n65", "cat_n130", "qv_n100"} {
		var want int
		for _, row := range Table2() {
			if row.Name == name {
				want = row.Depth
			}
		}
		if got := MustBuild(name).Depth(); got != want {
			t.Errorf("%s: depth = %d, want %d", name, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"qv_n100", "qft_n63", "multiplier_n45", "vqe_uccsd_n28"} {
		a, b := MustBuild(name), MustBuild(name)
		if a.Len() != b.Len() {
			t.Fatalf("%s: non-deterministic gate count %d vs %d", name, a.Len(), b.Len())
		}
		for i := range a.Gates() {
			if a.Gates()[i] != b.Gates()[i] {
				t.Fatalf("%s: gate %d differs between builds", name, i)
			}
		}
	}
}

func TestGHZStructure(t *testing.T) {
	c := GHZ(5)
	// H, then chain CX(0,1)..CX(3,4), then 5 measures.
	if c.Len() != 1+4+5 {
		t.Fatalf("Len = %d", c.Len())
	}
	ig := c.InteractionGraph()
	for i := 0; i+1 < 5; i++ {
		if !ig.HasEdge(i, i+1) {
			t.Fatalf("missing chain edge %d-%d", i, i+1)
		}
	}
	if ig.NumEdges() != 4 {
		t.Fatalf("interaction edges = %d, want 4 (pure chain)", ig.NumEdges())
	}
}

func TestBVStarInteraction(t *testing.T) {
	c := BV(10, 5)
	ig := c.InteractionGraph()
	// All interactions touch the ancilla (qubit 9).
	for _, e := range ig.Edges() {
		if e.U != 9 && e.V != 9 {
			t.Fatalf("BV interaction %d-%d does not involve ancilla", e.U, e.V)
		}
	}
	if ig.NumEdges() != 5 {
		t.Fatalf("BV interactions = %d, want 5", ig.NumEdges())
	}
}

func TestBVTooManyOnesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BV with ones > n-1 should panic")
		}
	}()
	BV(4, 4)
}

func TestIsingChainInteraction(t *testing.T) {
	c := Ising(10)
	ig := c.InteractionGraph()
	if ig.NumEdges() != 9 {
		t.Fatalf("ising interactions = %d, want 9 (nearest neighbor)", ig.NumEdges())
	}
	for i := 0; i+1 < 10; i++ {
		if w := ig.Weight(i, i+1); w != 2 {
			t.Fatalf("D_%d,%d = %v, want 2 (two CX per coupling)", i, i+1, w)
		}
	}
}

func TestIsingDepthConstant(t *testing.T) {
	if Ising(34).Depth() != Ising(98).Depth() {
		t.Fatal("ising depth should be independent of n")
	}
}

func TestSwapTestCounts(t *testing.T) {
	c := SwapTest(11) // m = 5
	if got := c.TwoQubitGateCount(); got != 40 {
		t.Fatalf("2q gates = %d, want 8m = 40", got)
	}
	if c.NumQubits() != 11 {
		t.Fatalf("qubits = %d", c.NumQubits())
	}
}

func TestSwapTestEvenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even swap test should panic")
		}
	}()
	SwapTest(10)
}

func TestQuGANFormula(t *testing.T) {
	for _, m := range []int{5, 19, 35, 55} {
		n := 2*m + 1
		c := QuGAN(n)
		want := 12*m - 2
		if got := c.TwoQubitGateCount(); got != want {
			t.Fatalf("qugan n=%d: 2q = %d, want 12m-2 = %d", n, got, want)
		}
	}
}

func TestAdderFormula(t *testing.T) {
	c := Adder(10) // m = 4
	if got, want := c.TwoQubitGateCount(), 16*4+1; got != want {
		t.Fatalf("adder 2q = %d, want %d", got, want)
	}
}

func TestAdderOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd adder should panic")
		}
	}()
	Adder(9)
}

func TestMultiplierFormula(t *testing.T) {
	c := Multiplier(9) // m = 3
	if got, want := c.TwoQubitGateCount(), 12*9; got != want {
		t.Fatalf("multiplier 2q = %d, want 12m^2 = %d", got, want)
	}
}

func TestQFTCompleteInteraction(t *testing.T) {
	c := QFT(8)
	ig := c.InteractionGraph()
	// Every qubit pair interacts exactly twice (2 CX per cphase).
	if ig.NumEdges() != 8*7/2 {
		t.Fatalf("qft interaction edges = %d, want complete graph", ig.NumEdges())
	}
	for _, e := range ig.Edges() {
		if e.W != 2 {
			t.Fatalf("qft D_%d,%d = %v, want 2", e.U, e.V, e.W)
		}
	}
}

func TestQVLayerCount(t *testing.T) {
	c := QV(10, 10, 7)
	if got, want := c.TwoQubitGateCount(), 10*5*3; got != want {
		t.Fatalf("qv 2q = %d, want %d", got, want)
	}
	if got, want := c.Depth(), 71; got != want {
		t.Fatalf("qv depth = %d, want 7*layers+measure = %d", got, want)
	}
}

func TestQVSeedChangesCircuit(t *testing.T) {
	a, b := QV(10, 5, 1), QV(10, 5, 2)
	same := a.Len() == b.Len()
	if same {
		for i := range a.Gates() {
			if a.Gates()[i] != b.Gates()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds should produce different QV circuits")
	}
}

func TestVQEHasTwoQubitStructure(t *testing.T) {
	c := VQEUCCSD(28)
	if c.TwoQubitGateCount() == 0 {
		t.Fatal("vqe should contain CX ladders")
	}
	if !c.InteractionGraph().Connected() {
		t.Fatal("vqe interaction graph should be connected")
	}
}
