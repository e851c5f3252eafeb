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
