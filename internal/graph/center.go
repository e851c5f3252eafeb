package graph

// Center returns the vertex minimizing eccentricity (the longest hop
// distance to any reachable vertex), breaking ties first by higher
// weighted degree and then by lower index. For a disconnected graph the
// center is computed over each vertex's reachable set, which makes the
// function total; callers that care should check Connected first.
//
// A vertex adjacent to all n−1 others makes the graph connected and has
// eccentricity min(1, n−1), the least possible; every other vertex then
// has a vertex it does not touch, at two or more hops. So when such a
// vertex exists, the center is found among the full-degree vertices
// alone, with no search. Otherwise each vertex's BFS stops once its
// depth passes the best eccentricity so far: such a vertex cannot win,
// while one that ties still compares weighted degree. Both scans visit
// vertices in index order with the same comparison, so NaN degrees and
// ties resolve as a BFS from every vertex would resolve them.
//
// Center panics on an empty graph.
func (g *Graph) Center() int {
	if g.n == 0 {
		panic("graph: center of empty graph")
	}
	best, bestDeg := -1, 0.0
	for v, as := range g.adj {
		if len(as) != g.n-1 {
			continue
		}
		if deg := g.WeightedDegree(v); best < 0 || deg > bestDeg {
			best, bestDeg = v, deg
		}
	}
	if best >= 0 {
		return best
	}
	dist, queue := make([]int, g.n), make([]int, 0, g.n)
	fill(dist, -1)
	bestEcc := g.n // above every eccentricity, so the first search runs to the end
	for v := 0; v < g.n; v++ {
		var ecc int
		ecc, queue = g.search(v, bestEcc, dist, nil, queue)
		for _, u := range queue {
			dist[u] = -1
		}
		if ecc > bestEcc {
			continue
		}
		deg := g.WeightedDegree(v)
		switch {
		case best < 0, ecc < bestEcc, deg > bestDeg:
			best, bestEcc, bestDeg = v, ecc, deg
		}
	}
	return best
}
