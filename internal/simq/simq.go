// Package simq is a dense state-vector quantum simulator for circuits
// of up to ~20 qubits. CloudQC's placement and scheduling never simulate
// quantum state — simq exists to validate the circuit generator library
// semantically (a GHZ circuit must produce a GHZ state, an adder must
// add) and to let downstream users execute small circuits end to end.
package simq

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"cloudqc/internal/circuit"
)

// maxQubits bounds the dense simulation (2^20 amplitudes = 16 MiB).
const maxQubits = 20

// State is a pure quantum state over n qubits. Amplitude indices use
// qubit 0 as the least significant bit.
type State struct {
	n   int
	amp []complex128
}

// NewState returns |0...0> over n qubits.
func NewState(n int) *State {
	if n < 1 || n > maxQubits {
		panic(fmt.Sprintf("simq: qubit count %d outside [1,%d]", n, maxQubits))
	}
	amp := make([]complex128, 1<<n)
	amp[0] = 1
	return &State{n: n, amp: amp}
}

// NumQubits returns the register size.
func (s *State) NumQubits() int { return s.n }

// Amplitude returns the amplitude of basis state |i>.
func (s *State) Amplitude(i int) complex128 { return s.amp[i] }

// Probability returns |amplitude|^2 of basis state |i>.
func (s *State) Probability(i int) float64 {
	a := s.amp[i]
	return float64(real(a)*real(a)) + float64(imag(a)*imag(a))
}

// mul is complex multiplication with every product rounded, so no
// architecture fuses it into multiply-adds: amplitudes come out with
// the same bits everywhere.
func mul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

// apply1 applies the 2x2 unitary {{a,b},{c,d}} to qubit q.
func (s *State) apply1(q int, a, b, c, d complex128) {
	bit := 1 << q
	for i := 0; i < len(s.amp); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = mul(a, a0) + mul(b, a1)
		s.amp[j] = mul(c, a0) + mul(d, a1)
	}
}

// applyControlled applies the 2x2 unitary to target t when control c is 1.
func (s *State) applyControlled(c, t int, u00, u01, u10, u11 complex128) {
	cb, tb := 1<<c, 1<<t
	for i := 0; i < len(s.amp); i++ {
		if i&cb == 0 || i&tb != 0 {
			continue
		}
		j := i | tb
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = mul(u00, a0) + mul(u01, a1)
		s.amp[j] = mul(u10, a0) + mul(u11, a1)
	}
}

// Apply executes one gate. Measurement gates require ApplyMeasure (they
// need randomness); passing one here panics.
func (s *State) Apply(g circuit.Gate) {
	isq2 := complex(1/math.Sqrt2, 0)
	switch g.Name {
	case "h":
		s.apply1(g.Qubits[0], isq2, isq2, isq2, -isq2)
	case "x":
		s.apply1(g.Qubits[0], 0, 1, 1, 0)
	case "y":
		s.apply1(g.Qubits[0], 0, -1i, 1i, 0)
	case "z":
		s.apply1(g.Qubits[0], 1, 0, 0, -1)
	case "s":
		s.apply1(g.Qubits[0], 1, 0, 0, 1i)
	case "sdg":
		s.apply1(g.Qubits[0], 1, 0, 0, -1i)
	case "t":
		s.apply1(g.Qubits[0], 1, 0, 0, cmplx.Exp(1i*math.Pi/4))
	case "tdg":
		s.apply1(g.Qubits[0], 1, 0, 0, cmplx.Exp(-1i*math.Pi/4))
	case "rx":
		c, sn := complex(math.Cos(g.Param/2), 0), complex(math.Sin(g.Param/2), 0)
		s.apply1(g.Qubits[0], c, mul(-1i, sn), mul(-1i, sn), c)
	case "ry":
		c, sn := complex(math.Cos(g.Param/2), 0), complex(math.Sin(g.Param/2), 0)
		s.apply1(g.Qubits[0], c, -sn, sn, c)
	case "rz", "u1", "p":
		s.apply1(g.Qubits[0], cmplx.Exp(complex(0, -g.Param/2)), 0, 0, cmplx.Exp(complex(0, g.Param/2)))
	case "cx":
		s.applyControlled(g.Qubits[0], g.Qubits[1], 0, 1, 1, 0)
	case "cz":
		s.applyControlled(g.Qubits[0], g.Qubits[1], 1, 0, 0, -1)
	case "cp", "cu1", "crz":
		s.applyControlled(g.Qubits[0], g.Qubits[1], 1, 0, 0, cmplx.Exp(complex(0, g.Param)))
	case "swap":
		a, b := g.Qubits[0], g.Qubits[1]
		s.applyControlled(a, b, 0, 1, 1, 0)
		s.applyControlled(b, a, 0, 1, 1, 0)
		s.applyControlled(a, b, 0, 1, 1, 0)
	case "measure":
		panic("simq: use ApplyMeasure for measurement gates")
	default:
		panic(fmt.Sprintf("simq: unsupported gate %q", g.Name))
	}
}

// ApplyMeasure measures qubit q in the computational basis, collapsing
// the state, and returns the outcome bit.
func (s *State) ApplyMeasure(q int, rng *rand.Rand) int {
	bit := 1 << q
	var p1 float64
	for i := range s.amp {
		if i&bit != 0 {
			p1 += s.Probability(i)
		}
	}
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	// Project and renormalize.
	keep := 0
	if outcome == 1 {
		keep = bit
	}
	var norm float64
	for i := range s.amp {
		if i&bit != keep {
			s.amp[i] = 0
		} else {
			norm += s.Probability(i)
		}
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] = mul(s.amp[i], scale)
	}
	return outcome
}

// Run executes a whole circuit on |0...0> and returns the final state
// plus measurement outcomes indexed by qubit (-1 for unmeasured qubits).
// Gates after a qubit's measurement keep operating on the collapsed
// state, matching the circuit model used throughout this repository.
func Run(c *circuit.Circuit, seed int64) (*State, []int) {
	s := NewState(c.NumQubits())
	rng := rand.New(rand.NewSource(seed))
	outcomes := make([]int, c.NumQubits())
	for i := range outcomes {
		outcomes[i] = -1
	}
	for _, g := range c.Gates() {
		if g.Kind == circuit.Measure {
			outcomes[g.Qubits[0]] = s.ApplyMeasure(g.Qubits[0], rng)
			continue
		}
		s.Apply(g)
	}
	return s, outcomes
}
