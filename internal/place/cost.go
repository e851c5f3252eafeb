package place

import (
	"math"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
)

// CommCost returns the paper's communication cost for a qubit assignment:
// Σ over qubit pairs of D_ij · C_π(i)π(j), where D is the interaction
// weight and C the hop distance between the hosting QPUs.
func CommCost(c *circuit.Circuit, cl *cloud.Cloud, qubitToQPU []int) float64 {
	return commCostEdges(c.InteractionGraph().Edges(), cl, qubitToQPU)
}

// commCostEdges is CommCost over a precomputed interaction edge list, so
// sweep loops don't rebuild the interaction graph per candidate.
func commCostEdges(edges []graph.Edge, cl *cloud.Cloud, qubitToQPU []int) float64 {
	var cost float64
	for _, e := range edges {
		cost += float64(e.W * float64(cl.Distance(qubitToQPU[e.U], qubitToQPU[e.V])))
	}
	return cost
}

// RemoteOps returns the number of two-qubit gates whose qubits land on
// different QPUs — the Table III metric.
func RemoteOps(c *circuit.Circuit, qubitToQPU []int) int {
	n := 0
	for _, g := range c.Gates() {
		if g.Kind == circuit.Two && qubitToQPU[g.Qubits[0]] != qubitToQPU[g.Qubits[1]] {
			n++
		}
	}
	return n
}

// EstimateTime returns the critical-path runtime of the circuit under
// the placement: local gates cost their Table I latency; remote two-qubit
// gates cost the expected EPR + swap + execution latency for their hop
// distance. This is Algorithm 1's estimate_time — it deliberately ignores
// communication-qubit contention, which the network scheduler handles.
//
// A gate's dependency predecessors are the last gates on its qubits, so
// one program-order pass with a per-qubit ready time walks the critical
// path: a gate starts at the latest ready time of its qubits, floored at
// 0, and finishes its duration later. Maxima use > so a NaN duration is
// skipped, never propagated.
func EstimateTime(c *circuit.Circuit, cl *cloud.Cloud, m epr.Model, qubitToQPU []int) float64 {
	return estimateTime(c, cl, m, qubitToQPU, remoteLatencies(cl, m))
}

// remoteLatencies tabulates m.ExpectedRemoteLatency(h) for every hop
// distance h a pair of cl's QPUs can be apart, so a sweep scores its
// candidates without recomputing it per remote gate.
func remoteLatencies(cl *cloud.Cloud, m epr.Model) []float64 {
	lat := make([]float64, cl.NumQPUs())
	for h := range lat {
		lat[h] = m.ExpectedRemoteLatency(h)
	}
	return lat
}

// estimateTime is EstimateTime with the remote latencies tabulated by
// remoteLatencies. An unreachable pair's distance, −1, reads lat[0]:
// ExpectedRemoteLatency clamps every distance below one hop to one hop,
// so lat[0] already holds that clamped value.
func estimateTime(c *circuit.Circuit, cl *cloud.Cloud, m epr.Model, qubitToQPU []int, lat []float64) float64 {
	ready := make([]float64, c.NumQubits())
	var total float64
	for _, g := range c.Gates() {
		qs := g.Qubits[:g.Arity()]
		dur := m.GateDuration(g.Kind)
		if g.Kind == circuit.Two {
			if a, b := qubitToQPU[qs[0]], qubitToQPU[qs[1]]; a != b {
				dur = lat[max(cl.Distance(a, b), 0)]
			}
		}
		start := 0.0
		for _, q := range qs {
			if ready[q] > start {
				start = ready[q]
			}
		}
		finish := start + dur
		for _, q := range qs {
			ready[q] = finish
		}
		if finish > total {
			total = finish
		}
	}
	return total
}

// Score combines estimated runtime T and communication cost C into the
// paper's placement score S = a/T + b/C with a = b = 1; higher is
// better. Zero C (a fully local placement) scores as if C were 0.5,
// keeping the score finite while still dominating any placement with
// real communication.
func Score(t, c float64) float64 {
	if t <= 0 {
		t = math.SmallestNonzeroFloat64
	}
	if c <= 0 {
		c = 0.5
	}
	return 1/t + 1/c
}

// RemoteOpsPerQPU returns R(V_j) for every QPU: the number of remote
// operations with one endpoint on that QPU (Eq. 7 of the paper).
func RemoteOpsPerQPU(c *circuit.Circuit, numQPUs int, qubitToQPU []int) []int {
	r := make([]int, numQPUs)
	for _, g := range c.Gates() {
		if g.Kind != circuit.Two {
			continue
		}
		a, b := qubitToQPU[g.Qubits[0]], qubitToQPU[g.Qubits[1]]
		if a != b {
			r[a]++
			r[b]++
		}
	}
	return r
}
