// Package epr models quantum-network primitives: the operation latency
// table of the paper (Table I) and probabilistic EPR pair generation.
//
// One time unit is the execution time of one CX gate. EPR generation is
// Bernoulli per attempt: allocating x communication-qubit pairs to a hop
// yields per-round success probability 1−(1−p)^x, and a failed round
// still consumes the communication qubits — both properties the paper
// calls out.
package epr

import (
	"fmt"
	"math"

	"cloudqc/internal/circuit"
)

// Latency is the operation latency table (paper Table I), in CX units.
type Latency struct {
	// OneQubit is the duration of any single-qubit gate (~0.1 CX).
	OneQubit float64
	// TwoQubit is the duration of CX/CZ gates (1 CX by definition).
	TwoQubit float64
	// Measure is the readout duration (~5 CX).
	Measure float64
	// EPRAttempt is the duration of one EPR pair generation attempt
	// (~10 CX).
	EPRAttempt float64
}

// DefaultLatency returns Table I's values.
func DefaultLatency() Latency {
	return Latency{OneQubit: 0.1, TwoQubit: 1, Measure: 5, EPRAttempt: 10}
}

// GateDuration returns the latency of a local gate of the given kind.
func (l Latency) GateDuration(k circuit.Kind) float64 {
	switch k {
	case circuit.Single:
		return l.OneQubit
	case circuit.Two:
		return l.TwoQubit
	case circuit.Measure:
		return l.Measure
	default:
		panic(fmt.Sprintf("epr: unknown gate kind %v", k))
	}
}

// Model combines the latency table with the EPR success probability
// (paper default 0.3, consistent with multi-node network experiments).
type Model struct {
	Latency
	// SuccessProb is the per-attempt EPR generation success probability,
	// in (0, 1].
	SuccessProb float64
}

// DefaultModel returns the paper's default model: Table I latencies and
// EPR success probability 0.3.
func DefaultModel() Model {
	return Model{Latency: DefaultLatency(), SuccessProb: 0.3}
}

// Validate reports whether the model's parameters are usable:
// SuccessProb in (0, 1], every latency finite and ≥ 0, and EPRAttempt
// and TwoQubit positive. The checks are written as !(ok) so that NaN,
// which fails every comparison, is rejected.
func (m Model) Validate() error {
	if !(m.SuccessProb > 0 && m.SuccessProb <= 1) {
		return fmt.Errorf("epr: success probability %v outside (0, 1]", m.SuccessProb)
	}
	for _, d := range [...]float64{m.OneQubit, m.TwoQubit, m.Measure, m.EPRAttempt} {
		if !(d >= 0 && d <= math.MaxFloat64) {
			return fmt.Errorf("epr: latency not finite and non-negative %+v", m.Latency)
		}
	}
	if !(m.EPRAttempt > 0 && m.TwoQubit > 0) {
		return fmt.Errorf("epr: non-positive latency %+v", m.Latency)
	}
	return nil
}

// DegradedProb validates and applies a fault-layer link degradation:
// the effective per-attempt success probability of an edge whose base
// probability is m.SuccessProb, scaled by scale. Validate is bypassed
// for models mutated after construction, so this is the checkpoint the
// fault layer goes through instead: the scaled probability may hit
// exactly 0 (a dead link) but can never go negative or exceed 1.
func (m Model) DegradedProb(scale float64) (float64, error) {
	if scale < 0 || scale > 1 || math.IsNaN(scale) {
		return 0, fmt.Errorf("epr: degradation scale %v outside [0, 1]", scale)
	}
	p := m.SuccessProb * scale
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("epr: degraded success probability %v outside [0, 1]", p)
	}
	return p, nil
}

// RoundSuccessProb is RoundSuccess for an explicit per-attempt success
// probability — the fault layer's per-edge variant: 1−(1−p)^pairs.
func RoundSuccessProb(p float64, pairs int) float64 {
	if pairs <= 0 || p <= 0 {
		return 0
	}
	return 1 - math.Pow(1-p, float64(pairs))
}

// RoundSuccess returns the probability that at least one of `pairs`
// parallel EPR attempts succeeds in one round: 1−(1−p)^pairs.
func (m Model) RoundSuccess(pairs int) float64 {
	if pairs <= 0 {
		return 0
	}
	return 1 - math.Pow(1-m.SuccessProb, float64(pairs))
}

// ExpectedRounds returns the expected number of attempt rounds until the
// first success with `pairs` parallel attempts per round (geometric
// mean 1/RoundSuccess).
func (m Model) ExpectedRounds(pairs int) float64 {
	p := m.RoundSuccess(pairs)
	if p <= 0 {
		return math.Inf(1)
	}
	return 1 / p
}

// ExpectedRemoteLatency estimates the wall-clock cost of one remote gate
// whose endpoints are `hops` QPU links apart, assuming one attempt pair
// per hop: per-hop expected EPR time, entanglement swapping at each
// intermediate node (one measurement each), then the local gate and the
// final measurement of the cat-entangler protocol. Placement scoring
// uses this deterministic estimate (Algorithm 1's estimate_time).
func (m Model) ExpectedRemoteLatency(hops int) float64 {
	if hops < 1 {
		hops = 1
	}
	eprTime := m.EPRAttempt * m.ExpectedRounds(1)
	swaps := float64(float64(hops-1) * m.Measure)
	return float64(float64(hops)*eprTime) + swaps + m.TwoQubit + m.Measure
}
