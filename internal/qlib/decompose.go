package qlib

import (
	"math"

	"cloudqc/internal/circuit"
)

// AppendToffoli appends the standard 6-CX Toffoli decomposition with
// controls a, b and target c. Exported so semantic validation (simq)
// can check the exact decomposition the generators emit.
func AppendToffoli(circ *circuit.Circuit, a, b, c int) { toffoli(circ, a, b, c) }

// toffoli appends the standard 6-CX decomposition of a Toffoli gate with
// controls a, b and target c.
func toffoli(circ *circuit.Circuit, a, b, c int) {
	circ.Append(
		circuit.H(c),
		circuit.CX(b, c),
		circuit.Tdg(c),
		circuit.CX(a, c),
		circuit.T(c),
		circuit.CX(b, c),
		circuit.Tdg(c),
		circuit.CX(a, c),
		circuit.T(b),
		circuit.T(c),
		circuit.H(c),
		circuit.CX(a, b),
		circuit.T(a),
		circuit.Tdg(b),
		circuit.CX(a, b),
	)
}

// fredkin appends a controlled-SWAP with control a swapping b and c,
// using the CX-conjugated Toffoli construction (8 two-qubit gates).
func fredkin(circ *circuit.Circuit, a, b, c int) {
	circ.Append(circuit.CX(c, b))
	toffoli(circ, a, b, c)
	circ.Append(circuit.CX(c, b))
}

// cphase appends a controlled phase rotation by theta between a and b,
// decomposed into 2 CX gates and single-qubit RZ rotations — the
// decomposition QASMBench's compiled circuits use, which is why
// qft_n160's two-qubit gate count is exactly n(n-1).
func cphase(circ *circuit.Circuit, a, b int, theta float64) {
	circ.Append(
		circuit.RZ(a, theta/2),
		circuit.CX(a, b),
		circuit.RZ(b, -theta/2),
		circuit.CX(a, b),
		circuit.RZ(b, theta/2),
	)
}

// zz appends exp(-i θ Z⊗Z) on a and b: CX, RZ, CX (2 two-qubit gates).
func zz(circ *circuit.Circuit, a, b int, theta float64) {
	circ.Append(
		circuit.CX(a, b),
		circuit.RZ(b, theta),
		circuit.CX(a, b),
	)
}

// su4 appends a parameterized two-qubit block in the standard 3-CX KAK
// template: single-qubit dressings around three CX gates. The angles are
// supplied by the caller so Quantum Volume layers stay deterministic.
func su4(circ *circuit.Circuit, a, b int, angles []float64) {
	at := func(i int) float64 {
		if i < len(angles) {
			return angles[i]
		}
		return math.Pi / 4
	}
	circ.Append(
		circuit.RY(a, at(0)), circuit.RY(b, at(1)),
		circuit.CX(a, b),
		circuit.RZ(a, at(2)), circuit.RY(b, at(3)),
		circuit.CX(a, b),
		circuit.RY(a, at(4)), circuit.RZ(b, at(5)),
		circuit.CX(a, b),
		circuit.RY(a, at(6)), circuit.RY(b, at(7)),
	)
}
