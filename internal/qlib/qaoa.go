package qlib

import (
	"fmt"
	"math"
	"math/rand"

	"cloudqc/internal/circuit"
)

func init() {
	register("qaoa_n32", func() *circuit.Circuit { return QAOA(32, 2, 1) })
	register("qaoa_n64", func() *circuit.Circuit { return QAOA(64, 2, 1) })
	register("wstate_n36", func() *circuit.Circuit { return WState(36) })
	register("grover_n8", func() *circuit.Circuit { return Grover(8) })
}

// QAOA builds a MaxCut QAOA circuit over a random 3-regular-style graph
// on n vertices with the given number of rounds: Hadamard layer, then
// per round a ZZ cost block (2 CX each) for every problem-graph edge
// and an RX mixer layer. The seed pins the problem graph.
//
// Two-qubit gates: rounds × 2 × edges (edges ≈ 3n/2).
func QAOA(n, rounds int, seed int64) *circuit.Circuit {
	if n < 4 {
		panic(fmt.Sprintf("qlib: QAOA needs n >= 4, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(fmt.Sprintf("qaoa_n%d", n), n)
	// Problem graph: a ring plus ~n/2 random chords, giving mean degree
	// ~3 like the MaxCut instances QAOA papers use.
	type edge struct{ a, b int }
	var edges []edge
	for i := 0; i < n; i++ {
		edges = append(edges, edge{a: i, b: (i + 1) % n})
	}
	seen := map[[2]int]bool{}
	for len(seen) < n/2 {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || b == (a+1)%n || a == (b+1)%n {
			continue
		}
		key := [2]int{min(a, b), max(a, b)}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, edge{a: key[0], b: key[1]})
	}

	for q := 0; q < n; q++ {
		c.Append(circuit.H(q))
	}
	for r := 0; r < rounds; r++ {
		gamma := 0.4 + float64(0.2*float64(r))
		beta := 0.7 - float64(0.2*float64(r))
		for _, e := range edges {
			zz(c, e.a, e.b, gamma)
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.RX(q, 2*beta))
		}
	}
	c.MeasureAll()
	return c
}

// WState builds the n-qubit W state |100..0> + |010..0> + ... + |00..01>
// via the standard cascade of controlled rotations: qubit 0 starts in
// |1> and amplitude is passed down the register with RY + CX pairs.
func WState(n int) *circuit.Circuit {
	if n < 2 {
		panic(fmt.Sprintf("qlib: W state needs n >= 2, got %d", n))
	}
	c := circuit.New(fmt.Sprintf("wstate_n%d", n), n)
	c.Append(circuit.X(0))
	for i := 0; i+1 < n; i++ {
		// Split amplitude between qubit i and i+1: a controlled-RY from
		// i onto i+1 (decomposed RY/CX/RY/CX), then CX back to unset i
		// when the excitation moved on.
		theta := thetaForSplit(n - i)
		c.Append(circuit.RY(i+1, theta/2))
		c.Append(circuit.CX(i, i+1))
		c.Append(circuit.RY(i+1, -theta/2))
		c.Append(circuit.CX(i, i+1))
		c.Append(circuit.CX(i+1, i))
	}
	c.MeasureAll()
	return c
}

// Grover builds Grover search on n = 2m qubits: m data qubits, m-1
// Toffoli-ladder ancillas and one oracle phase qubit. The oracle marks
// the all-ones string; one Grover iteration (oracle + diffusion) is
// applied — enough to exercise the multi-controlled structure that
// makes Grover circuits interaction-heavy.
func Grover(n int) *circuit.Circuit {
	if n < 6 || n%2 != 0 {
		panic(fmt.Sprintf("qlib: Grover needs even n >= 6, got %d", n))
	}
	m := n / 2
	c := circuit.New(fmt.Sprintf("grover_n%d", n), n)
	data := func(i int) int { return i }
	anc := func(i int) int { return m + i } // m-1 ancillas
	phase := n - 1

	c.Append(circuit.X(phase), circuit.H(phase))
	for i := 0; i < m; i++ {
		c.Append(circuit.H(data(i)))
	}
	mcx := func() {
		// Toffoli ladder: anc(0) = d0 AND d1; anc(i) = anc(i-1) AND d(i+1).
		toffoli(c, data(0), data(1), anc(0))
		for i := 1; i < m-1; i++ {
			toffoli(c, anc(i-1), data(i+1), anc(i))
		}
		c.Append(circuit.CX(anc(m-2), phase))
		for i := m - 2; i >= 1; i-- {
			toffoli(c, anc(i-1), data(i+1), anc(i))
		}
		toffoli(c, data(0), data(1), anc(0))
	}
	mcx() // oracle: phase kickback on all-ones
	// Diffusion: H X (multi-controlled Z via the same ladder) X H.
	for i := 0; i < m; i++ {
		c.Append(circuit.H(data(i)), circuit.X(data(i)))
	}
	mcx()
	for i := 0; i < m; i++ {
		c.Append(circuit.X(data(i)), circuit.H(data(i)))
	}
	for i := 0; i < m; i++ {
		c.Append(circuit.M(data(i)))
	}
	return c
}

// thetaForSplit returns the RY angle that keeps 1/remaining of the
// excitation probability on the current qubit and passes the rest on.
func thetaForSplit(remaining int) float64 {
	return 2 * math.Acos(math.Sqrt(1/float64(remaining)))
}
