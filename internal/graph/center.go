package graph

// Center returns the vertex minimizing eccentricity (the longest hop
// distance to any reachable vertex), breaking ties first by higher
// weighted degree and then by lower index. For a disconnected graph the
// center is computed over each vertex's reachable set, which makes the
// function total; callers that care should check Connected first.
//
// Center panics on an empty graph.
func (g *Graph) Center() int {
	if g.n == 0 {
		panic("graph: center of empty graph")
	}
	// One BFS per vertex, all sharing one distance array and queue.
	dist, queue := make([]int, g.n), make([]int, 0, g.n)
	best, bestEcc, bestDeg := -1, -1, 0.0
	for v := 0; v < g.n; v++ {
		var ecc int
		ecc, queue = g.hops(v, dist, queue)
		deg := g.WeightedDegree(v)
		switch {
		case best < 0, ecc < bestEcc, ecc == bestEcc && deg > bestDeg:
			best, bestEcc, bestDeg = v, ecc, deg
		}
	}
	return best
}

type closeCand struct {
	vertex int
	d      int
	deg    float64
}

func (a closeCand) less(b closeCand) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.vertex < b.vertex
}

// KClosest returns up to k vertices closest to v by hop distance,
// excluding v itself, preferring smaller distance, then higher weighted
// degree, then lower index. Unreachable vertices are never returned.
func (g *Graph) KClosest(v, k int) []int {
	g.check(v)
	dist := g.HopDistances(v)
	var cs []closeCand
	for u := 0; u < g.n; u++ {
		if u == v || dist[u] < 0 {
			continue
		}
		cs = append(cs, closeCand{vertex: u, d: dist[u], deg: g.WeightedDegree(u)})
	}
	// Insertion sort keeps determinism explicit; candidate lists here are
	// small (cloud topologies have tens of QPUs).
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].less(cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	if k > len(cs) {
		k = len(cs)
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, cs[i].vertex)
	}
	return out
}
