package simq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cloudqc/internal/circuit"
	"cloudqc/internal/qlib"
)

const eps = 1e-9

// probabilities returns the state's basis-state probability vector.
func probabilities(s *State) []float64 {
	ps := make([]float64, 1<<s.NumQubits())
	for i := range ps {
		ps[i] = s.Probability(i)
	}
	return ps
}

// norm returns the state's total probability (1 for a valid state).
func norm(s *State) float64 {
	var p float64
	for _, x := range probabilities(s) {
		p += x
	}
	return p
}

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if s.Probability(0) != 1 {
		t.Fatalf("P(|000>) = %v", s.Probability(0))
	}
	if math.Abs(norm(s)-1) > eps {
		t.Fatalf("norm = %v", norm(s))
	}
}

func TestNewStateBounds(t *testing.T) {
	for _, n := range []int{0, 21} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewState(%d) should panic", n)
				}
			}()
			NewState(n)
		}()
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.Apply(circuit.H(0))
	if math.Abs(s.Probability(0)-0.5) > eps || math.Abs(s.Probability(1)-0.5) > eps {
		t.Fatalf("H|0> probs = %v, %v", s.Probability(0), s.Probability(1))
	}
	s.Apply(circuit.H(0)) // H is self-inverse
	if math.Abs(s.Probability(0)-1) > eps {
		t.Fatalf("HH|0> != |0>: %v", s.Probability(0))
	}
}

func TestXFlips(t *testing.T) {
	s := NewState(2)
	s.Apply(circuit.X(1))
	if math.Abs(s.Probability(0b10)-1) > eps {
		t.Fatalf("X(1)|00> probs: %v", probabilities(s))
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.Apply(circuit.H(0))
	s.Apply(circuit.CX(0, 1))
	if math.Abs(s.Probability(0b00)-0.5) > eps || math.Abs(s.Probability(0b11)-0.5) > eps {
		t.Fatalf("bell probs: %v", probabilities(s))
	}
	if s.Probability(0b01) > eps || s.Probability(0b10) > eps {
		t.Fatalf("bell cross terms: %v", probabilities(s))
	}
}

func TestGHZStateFromGenerator(t *testing.T) {
	// The qlib GHZ generator must produce (|0..0> + |1..1>)/sqrt(2)
	// before measurement.
	c := qlib.GHZ(8)
	s := NewState(8)
	for _, g := range c.Gates() {
		if g.Kind == circuit.Measure {
			break
		}
		s.Apply(g)
	}
	all1 := 1<<8 - 1
	if math.Abs(s.Probability(0)-0.5) > eps || math.Abs(s.Probability(all1)-0.5) > eps {
		t.Fatalf("GHZ endpoint probs: %v, %v", s.Probability(0), s.Probability(all1))
	}
}

func TestBVRecoversHiddenString(t *testing.T) {
	// Bernstein–Vazirani measures the hidden string deterministically.
	c := qlib.BV(9, 4) // 8 data qubits, 4 ones
	_, outcomes := Run(c, 1)
	var recovered, want int
	data := 8
	for i := 0; i < data; i++ {
		if outcomes[i] == 1 {
			recovered |= 1 << i
		}
		if (i*4)/data != ((i+1)*4)/data { // generator's secret-bit rule
			want |= 1 << i
		}
	}
	if recovered != want {
		t.Fatalf("BV recovered %b, want %b", recovered, want)
	}
}

func TestAdderAdds(t *testing.T) {
	// 4-bit Cuccaro adder (n=10): the generator loads a=0101=5 (bits
	// 0,2 of a set) and b=0011=3, so the sum register must read 8.
	c := qlib.Adder(10)
	_, outcomes := Run(c, 1)
	m := 4
	b := func(i int) int { return 1 + 2*i }
	sum := 0
	for i := 0; i < m; i++ {
		if outcomes[b(i)] == 1 {
			sum |= 1 << i
		}
	}
	if outcomes[9] == 1 { // carry out
		sum |= 1 << m
	}
	// Generator operand pattern: a bits set where i%2==0 -> a = 0101b = 5;
	// b bits set where i%4<2 -> b = 0011b = 3.
	if sum != 8 {
		t.Fatalf("adder produced %d, want 8", sum)
	}
}

func TestQFTInverseRoundTrip(t *testing.T) {
	// QFT then inverse QFT on a basis state returns the basis state.
	n := 4
	fwd := qlib.QFT(n)
	s := NewState(n)
	s.Apply(circuit.X(1)) // start in |0010>
	var gates []circuit.Gate
	for _, g := range fwd.Gates() {
		if g.Kind != circuit.Measure {
			gates = append(gates, g)
		}
	}
	for _, g := range gates {
		s.Apply(g)
	}
	// Inverse: reversed gate order with negated parameters.
	for i := len(gates) - 1; i >= 0; i-- {
		g := gates[i]
		g.Param = -g.Param
		s.Apply(g)
	}
	if math.Abs(s.Probability(0b0010)-1) > 1e-6 {
		t.Fatalf("QFT round trip lost the state: P = %v", s.Probability(0b0010))
	}
}

func TestSwapGate(t *testing.T) {
	s := NewState(2)
	s.Apply(circuit.X(0))
	s.Apply(circuit.Swap(0, 1))
	if math.Abs(s.Probability(0b10)-1) > eps {
		t.Fatalf("swap probs: %v", probabilities(s))
	}
}

func TestSwapTestOnEqualStates(t *testing.T) {
	// Swap test on identical registers (both |0>): the ancilla must
	// always measure 0 — validating qlib's full Fredkin decomposition.
	c := qlib.SwapTest(3)
	for seed := int64(0); seed < 20; seed++ {
		_, outcomes := Run(c, seed)
		if outcomes[0] != 0 {
			t.Fatalf("swap test on equal states measured ancilla=1 (seed %d)", seed)
		}
	}
}

func TestWStateAmplitudes(t *testing.T) {
	// Before measurement, the n=5 W state has probability 1/n on each
	// single-excitation basis state and zero elsewhere.
	n := 5
	c := qlib.WState(n)
	s := NewState(n)
	for _, g := range c.Gates() {
		if g.Kind == circuit.Measure {
			break
		}
		s.Apply(g)
	}
	for basis := 0; basis < 1<<n; basis++ {
		p := s.Probability(basis)
		if popcount(basis) == 1 {
			if math.Abs(p-1/float64(n)) > 1e-9 {
				t.Fatalf("P(%05b) = %v, want %v", basis, p, 1/float64(n))
			}
		} else if p > 1e-9 {
			t.Fatalf("P(%05b) = %v, want 0", basis, p)
		}
	}
}

func TestGroverAmplifiesMarkedState(t *testing.T) {
	// One Grover iteration over m=4 data qubits amplifies the all-ones
	// string to ~47% (sin^2(3θ), sin θ = 1/4) from the uniform 1/16.
	c := qlib.Grover(8)
	s := NewState(8)
	for _, g := range c.Gates() {
		if g.Kind == circuit.Measure {
			break
		}
		s.Apply(g)
	}
	// Marginal probability that data qubits 0..3 are all ones.
	var marked float64
	for basis := 0; basis < 1<<8; basis++ {
		if basis&0b1111 == 0b1111 {
			marked += s.Probability(basis)
		}
	}
	if marked < 0.4 || marked > 0.55 {
		t.Fatalf("P(marked) = %v, want ~0.47", marked)
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestMeasureCollapsesState(t *testing.T) {
	s := NewState(2)
	s.Apply(circuit.H(0))
	s.Apply(circuit.CX(0, 1))
	rng := rand.New(rand.NewSource(5))
	first := s.ApplyMeasure(0, rng)
	// Entangled partner must agree deterministically now.
	second := s.ApplyMeasure(1, rng)
	if first != second {
		t.Fatalf("bell measurement disagreement: %d vs %d", first, second)
	}
	if math.Abs(norm(s)-1) > eps {
		t.Fatalf("collapsed norm = %v", norm(s))
	}
}

func TestMeasureStatistics(t *testing.T) {
	ones := 0
	const trials = 2000
	for seed := int64(0); seed < trials; seed++ {
		s := NewState(1)
		s.Apply(circuit.H(0))
		rng := rand.New(rand.NewSource(seed))
		ones += s.ApplyMeasure(0, rng)
	}
	frac := float64(ones) / trials
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("H|0> measurement frequency %v, want ~0.5", frac)
	}
}

func TestRunReportsUnmeasuredAsMinusOne(t *testing.T) {
	c := circuit.New("partial", 3)
	c.Append(circuit.H(0), circuit.M(0))
	_, outcomes := Run(c, 1)
	if outcomes[1] != -1 || outcomes[2] != -1 {
		t.Fatalf("unmeasured outcomes = %v", outcomes)
	}
	if outcomes[0] != 0 && outcomes[0] != 1 {
		t.Fatalf("measured outcome = %d", outcomes[0])
	}
}

func TestUnsupportedGatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown gate should panic")
		}
	}()
	NewState(1).Apply(circuit.Gate{Name: "frob", Kind: circuit.Single, Qubits: [2]int{0, -1}})
}

func TestMeasureViaApplyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply(measure) should panic")
		}
	}()
	NewState(1).Apply(circuit.M(0))
}

// Property: every unitary gate preserves the norm.
func TestQuickUnitarityPreservesNorm(t *testing.T) {
	gates := []func(a, b int, p float64) circuit.Gate{
		func(a, _ int, _ float64) circuit.Gate { return circuit.H(a) },
		func(a, _ int, p float64) circuit.Gate { return circuit.RX(a, p) },
		func(a, _ int, p float64) circuit.Gate { return circuit.RY(a, p) },
		func(a, _ int, p float64) circuit.Gate { return circuit.RZ(a, p) },
		func(a, b int, _ float64) circuit.Gate { return circuit.CX(a, b) },
		func(a, b int, _ float64) circuit.Gate { return circuit.CZ(a, b) },
		func(a, b int, p float64) circuit.Gate { return circuit.CP(a, b, p) },
		func(a, b int, _ float64) circuit.Gate { return circuit.Swap(a, b) },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		s := NewState(n)
		for i := 0; i < 25; i++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if b == a {
				b = (b + 1) % n
			}
			g := gates[rng.Intn(len(gates))](a, b, rng.Float64()*2*math.Pi)
			s.Apply(g)
		}
		return math.Abs(norm(s)-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Toffoli decomposed by qlib acts as a doubly-controlled NOT
// on every computational basis state of 3 qubits.
func TestToffoliDecompositionTruthTable(t *testing.T) {
	for input := 0; input < 8; input++ {
		c := circuit.New("tof", 3)
		for q := 0; q < 3; q++ {
			if input&(1<<q) != 0 {
				c.Append(circuit.X(q))
			}
		}
		qlib.AppendToffoli(c, 0, 1, 2)
		s := NewState(3)
		for _, g := range c.Gates() {
			s.Apply(g)
		}
		want := input
		if input&0b011 == 0b011 {
			want ^= 0b100
		}
		if p := s.Probability(want); math.Abs(p-1) > 1e-9 {
			t.Fatalf("toffoli input %03b: P(%03b) = %v", input, want, p)
		}
	}
}
