package qlib

import (
	"fmt"
	"math"
	"math/rand"

	"cloudqc/internal/circuit"
)

func init() {
	register("qv_n100", func() *circuit.Circuit { return QV(100, 100, 1) })
}

// QV builds an n-qubit Quantum Volume model circuit with the given number
// of layers. Each layer draws a random qubit permutation, pairs adjacent
// entries, and applies a 3-CX SU(4) block to every pair.
//
// Two-qubit gates: layers × ⌊n/2⌋ × 3 — matching Table II exactly for
// qv_n100 (100 layers × 50 pairs × 3 = 15000). Depth: 7 per layer plus
// the measurement layer (701 for qv_n100, matching Table II).
//
// The seed makes the circuit reproducible; the registry pins seed 1.
func QV(n, layers int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(fmt.Sprintf("qv_n%d", n), n)
	perm := make([]int, n)
	for l := 0; l < layers; l++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i+1 < n; i += 2 {
			angles := make([]float64, 8)
			for k := range angles {
				angles[k] = float64(rng.Float64()) * 2 * math.Pi
			}
			su4(c, perm[i], perm[i+1], angles)
		}
	}
	c.MeasureAll()
	return c
}
