package epr

import (
	"fmt"
	"math"
)

// FidelityModel extends the EPR model with link fidelity and
// entanglement purification — the extension the paper flags as future
// work ("we might consider the reliability of quantum links between
// QPUs ... easily encoded into the edge weights").
//
// Raw EPR pairs on one hop have fidelity LinkFidelity. Entanglement
// swapping across h hops multiplies fidelities (F_e2e ≈ F^h, the
// standard first-order model). When the end-to-end fidelity would fall
// below Threshold, each hop's pair is purified first: one BBPSSW-style
// round consumes two pairs of fidelity F and yields one of
// F' = F² / (F² + (1−F)²), so r rounds cost 2^r raw pairs per hop.
type FidelityModel struct {
	Model
	// LinkFidelity is the fidelity of one raw EPR pair over one hop,
	// in (0.5, 1].
	LinkFidelity float64
	// Threshold is the minimum acceptable end-to-end fidelity for a
	// remote gate, in (0, 1].
	Threshold float64
}

// DefaultFidelityModel returns the paper's EPR defaults with a 0.97
// link fidelity and a 0.9 end-to-end threshold.
func DefaultFidelityModel() FidelityModel {
	return FidelityModel{Model: DefaultModel(), LinkFidelity: 0.97, Threshold: 0.9}
}

// Validate extends Model.Validate with the fidelity parameters. Like
// Model.Validate it writes its range checks as !(ok), so NaN is rejected.
func (f FidelityModel) Validate() error {
	if err := f.Model.Validate(); err != nil {
		return err
	}
	if !(f.LinkFidelity > 0.5 && f.LinkFidelity <= 1) {
		return fmt.Errorf("epr: link fidelity %v outside (0.5, 1]", f.LinkFidelity)
	}
	if !(f.Threshold > 0 && f.Threshold <= 1) {
		return fmt.Errorf("epr: fidelity threshold %v outside (0, 1]", f.Threshold)
	}
	return nil
}

// Purify applies one BBPSSW-style purification round to fidelity F.
func Purify(f float64) float64 {
	return f * f / (float64(f*f) + float64((1-f)*(1-f)))
}

// maxPurifyRounds bounds the purification recursion; past this the
// threshold is declared unreachable (2^6 = 64 raw pairs per hop already
// exceeds any plausible communication qubit budget).
const maxPurifyRounds = 6

// PurifyRounds returns the number of purification rounds each hop needs
// so that the end-to-end fidelity over hops links clears Threshold, or
// an error when the threshold is unreachable within maxPurifyRounds.
func (f FidelityModel) PurifyRounds(hops int) (int, error) {
	if hops < 1 {
		hops = 1
	}
	// Per-hop requirement so that hopF^hops >= Threshold.
	perHop := math.Pow(f.Threshold, 1/float64(hops))
	cur := f.LinkFidelity
	for r := 0; r <= maxPurifyRounds; r++ {
		if cur >= perHop {
			return r, nil
		}
		cur = Purify(cur)
	}
	return 0, fmt.Errorf("epr: fidelity threshold %v unreachable over %d hops from link fidelity %v",
		f.Threshold, hops, f.LinkFidelity)
}

// PairsPerHop returns how many raw EPR successes each hop must
// accumulate (2^rounds) to deliver one purified pair meeting Threshold.
func (f FidelityModel) PairsPerHop(hops int) (int, error) {
	r, err := f.PurifyRounds(hops)
	if err != nil {
		return 0, err
	}
	return 1 << r, nil
}
