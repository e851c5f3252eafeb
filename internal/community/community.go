// Package community implements modularity-based community detection
// (Newman, PNAS 2006) via the greedy CNM agglomeration: start with every
// vertex in its own community and repeatedly merge the connected pair
// with the largest modularity gain, keeping the partition with the best
// modularity seen.
//
// CloudQC uses it to find sets of well-connected QPUs with spare capacity
// (paper Sec. V-B, "Finding feasible QPU sets"): edge weights of the
// cloud graph embed free computing qubits, so dense high-capacity QPU
// groups surface as communities.
package community

import (
	"sort"

	"cloudqc/internal/graph"
)

// Communities is the result of a detection run.
type Communities struct {
	// Assign maps each vertex to its community id in [0, len(Groups)).
	Assign []int
	// Groups lists each community's vertices in ascending order, ordered
	// by their smallest member.
	Groups [][]int
	// Q is the modularity of this division.
	Q float64
}

// Modularity computes Newman's weighted modularity of the given
// assignment: Q = Σ_ij [A_ij/(2m) − k_i·k_j/(2m)²]·δ(c_i, c_j).
// Community ids must lie in [0, g.N()). An edgeless graph has
// modularity 0 by convention. The per-community terms are summed in
// ascending id order, so the result's bits never vary between calls.
func Modularity(g *graph.Graph, assign []int) float64 {
	m2 := 2 * g.TotalWeight()
	if m2 == 0 {
		return 0
	}
	// internal[c] accumulates 2·(weight inside c); degSum[c] sums
	// weighted degrees.
	internal := make([]float64, g.N())
	degSum := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		degSum[assign[v]] += g.WeightedDegree(v)
	}
	for _, e := range g.Edges() {
		if assign[e.U] == assign[e.V] {
			internal[assign[e.U]] += 2 * e.W
		}
	}
	var q float64
	for c, ds := range degSum {
		q += internal[c]/m2 - float64((ds/m2)*(ds/m2))
	}
	return q
}

// Detect runs CNM greedy modularity maximization and returns the best
// division found. Deterministic: merge ties break toward the smaller
// community-id pair.
func Detect(g *graph.Graph) *Communities {
	n := g.N()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	m2 := 2 * g.TotalWeight()
	if n == 0 || m2 == 0 {
		return build(g, assign)
	}

	// Community state, indexed by community id (a surviving vertex id):
	// between[a*n+b] is the total weight between a and b and linked[a*n+b]
	// whether they touch at all (a zero-weight edge still links them),
	// deg[c] is the summed weighted degree, alive[c] tracks merged-away
	// ids.
	between := make([]float64, n*n)
	linked := make([]bool, n*n)
	deg := make([]float64, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = g.WeightedDegree(v)
		alive[v] = true
	}
	for _, e := range g.Edges() {
		between[e.U*n+e.V] += e.W
		between[e.V*n+e.U] += e.W
		linked[e.U*n+e.V], linked[e.V*n+e.U] = true, true
	}

	cur := make([]int, n)
	copy(cur, assign)
	bestAssign := make([]int, n)
	copy(bestAssign, cur)
	bestQ := Modularity(g, cur)
	curQ := bestQ

	for {
		// Find the merge with maximum ΔQ.
		mergeA, mergeB, bestDelta := -1, -1, 0.0
		first := true
		for a := 0; a < n; a++ {
			if !alive[a] {
				continue
			}
			for b := a + 1; b < n; b++ {
				if !linked[a*n+b] || !alive[b] {
					continue
				}
				w := between[a*n+b]
				delta := 2 * (w/m2 - float64((deg[a]/m2)*(deg[b]/m2)))
				if first || delta > bestDelta {
					mergeA, mergeB, bestDelta = a, b, delta
					first = false
				}
			}
		}
		if mergeA < 0 {
			break // no connected pairs left
		}
		// Merge B into A.
		alive[mergeB] = false
		deg[mergeA] += deg[mergeB]
		rowA, rowB := mergeA*n, mergeB*n
		for c := 0; c < n; c++ {
			if !linked[rowB+c] {
				continue
			}
			linked[rowB+c], linked[c*n+mergeB] = false, false
			if c == mergeA {
				continue
			}
			w := between[rowB+c]
			between[rowA+c] += w
			between[c*n+mergeA] += w
			linked[rowA+c], linked[c*n+mergeA] = true, true
		}
		for v := 0; v < n; v++ {
			if cur[v] == mergeB {
				cur[v] = mergeA
			}
		}
		curQ += bestDelta
		if curQ > bestQ {
			bestQ = curQ
			copy(bestAssign, cur)
		}
	}
	return build(g, bestAssign)
}

// build canonicalizes an assignment into a Communities value with dense
// ids ordered by smallest member.
func build(g *graph.Graph, assign []int) *Communities {
	byOld := map[int][]int{}
	for v, c := range assign {
		byOld[c] = append(byOld[c], v)
	}
	var groups [][]int
	for _, vs := range byOld {
		sort.Ints(vs)
		groups = append(groups, vs)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	dense := make([]int, len(assign))
	for id, vs := range groups {
		for _, v := range vs {
			dense[v] = id
		}
	}
	return &Communities{Assign: dense, Groups: groups, Q: Modularity(g, dense)}
}
