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

// estOp is one gate of a circuit's estimate program: its qubits, q1 =
// −1 for a one-qubit gate or a measure, and its duration as a local
// gate.
type estOp struct {
	q0, q1 int32
	dur    float64
}

// compileEstimate returns c's estimate program under m: one op per gate,
// in program order. A circuit's fingerprint covers every gate's kind and
// qubits, so the program is a function of the fingerprint and the model.
func compileEstimate(c *circuit.Circuit, m epr.Model) []estOp {
	ops := make([]estOp, c.Len())
	for i, g := range c.Gates() {
		ops[i] = estOp{q0: int32(g.Qubits[0]), q1: -1, dur: m.GateDuration(g.Kind)}
		if g.Kind == circuit.Two {
			ops[i].q1 = int32(g.Qubits[1])
		}
	}
	return ops
}

// estimateTime is Algorithm 1's estimate_time: the critical-path
// runtime of the program under the placement. Local gates cost their
// Table I latency; a remote two-qubit gate costs the expected EPR +
// swap + execution latency for its hop distance, read off the table
// remoteLatencies fills. It deliberately ignores communication-qubit
// contention, which the network scheduler handles. ready is scratch of
// one entry per qubit.
//
// A gate's dependency predecessors are the last gates on its qubits, so
// one program-order pass with a per-qubit ready time walks the critical
// path: a gate starts at the latest ready time of its qubits, floored at
// 0, and finishes its duration later. Maxima use > so a NaN duration is
// skipped, never propagated. An unreachable pair's distance, −1, reads
// lat[0]: ExpectedRemoteLatency clamps every distance below one hop to
// one hop, so lat[0] already holds that clamped value.
func estimateTime(ops []estOp, ready []float64, cl *cloud.Cloud, qubitToQPU []int, lat []float64) float64 {
	clear(ready)
	var total float64
	for _, op := range ops {
		start, dur := 0.0, op.dur
		if ready[op.q0] > start {
			start = ready[op.q0]
		}
		if op.q1 >= 0 {
			if a, b := qubitToQPU[op.q0], qubitToQPU[op.q1]; a != b {
				dur = lat[max(cl.Distance(a, b), 0)]
			}
			if ready[op.q1] > start {
				start = ready[op.q1]
			}
		}
		finish := start + dur
		ready[op.q0] = finish
		if op.q1 >= 0 {
			ready[op.q1] = finish
		}
		if finish > total {
			total = finish
		}
	}
	return total
}

// localTime is estimateTime of the program with every qubit on one QPU,
// where no gate is remote and neither the cloud nor the table is read.
func localTime(ops []estOp, qubits int) float64 {
	return estimateTime(ops, make([]float64, qubits), nil, make([]int, qubits), nil)
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

// boundsTime reports whether Score(tLocal, cCut) bounds the score of
// every mapping of a candidate, where tLocal is the program's localTime
// and cCut the candidate's crossing weight; it holds when every entry
// of lat is finite and at least m's local two-qubit duration. The
// sweep then skips a candidate whose bound does not beat the best score
// so far: it could not replace the best. Each step below holds for
// floating-point results, since rounding is monotone.
//
//   - t ≥ tLocal. The scan under a placement and the all-local scan
//     apply the same operations to the same one-qubit durations, and a
//     remote gate's duration is an entry of lat, which is no less than
//     the local one. By induction over the gates, each qubit's ready
//     time under the placement is at least its all-local ready time
//     (or NaN in both): max and + are monotone. So is the final max.
//   - c ≥ cCut. mapParts puts the parts on distinct QPUs, each
//     reachable from the QPU set's center, so an edge between parts
//     spans one hop or more and an edge within a part spans none. c
//     sums W·hops over the edges in edge order, adding exact zeros for
//     edges within a part; cCut sums W over the crossing edges in the
//     same order, and W·hops ≥ W.
//   - Score falls as t or c rises, clamps included. t ≤ 0 counts as the
//     smallest positive float, which is monotone. Interaction weights
//     count gates, so c and cCut are each 0 or at least 1, and the
//     clamp of c ≤ 0 to 0.5 (1/c = 2) exceeds 1/c for every c ≥ 1.
//
// A model whose remote latency undercuts a local CX, or is infinite or
// NaN, breaks the first step, so the sweep then scores every point.
func boundsTime(lat []float64, m epr.Model) bool {
	two := m.GateDuration(circuit.Two)
	for _, l := range lat {
		if !(l >= two && l <= math.MaxFloat64) {
			return false
		}
	}
	return true
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
