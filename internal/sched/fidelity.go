package sched

import (
	"fmt"
	"math/rand"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
)

// RunFidelity is Run under a fidelity-aware EPR model: every remote
// gate must deliver end-to-end entanglement at or above the model's
// fidelity threshold, so each hop accumulates 2^r raw EPR successes
// (r purification rounds) instead of one. The extra successes reuse
// the hop-accumulation machinery — hopsLeft simply counts raw-pair
// successes still owed.
func RunFidelity(dag *RemoteDAG, cl *cloud.Cloud, f epr.FidelityModel, p Policy, rng *rand.Rand) (Result, error) {
	if err := f.Validate(); err != nil {
		return Result{}, err
	}
	// Scale every node's owed successes by its purification factor.
	scale := func(s *JobState) error {
		for u, n := range dag.Nodes {
			pairs, err := f.PairsPerHop(n.Hops())
			if err != nil {
				return fmt.Errorf("sched: node %d (%d hops): %w", u, n.Hops(), err)
			}
			s.hopsLeft[u] = n.Hops() * pairs
		}
		return nil
	}
	return runSingle(dag, cl, f.Model, p, rng, scale, nil)
}
