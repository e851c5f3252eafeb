package partition

// initialPartition produces a k-way assignment of the coarsest graph by
// greedy graph growing: k seeds spread by repeated farthest-vertex BFS,
// then parts claim their most-connected boundary vertex in round-robin
// until everything is assigned. cap bounds each part's total fine-vertex
// weight (coarse vertices carry the weight of everything merged into
// them).
func (l *level) initialPartition(k, cap int) []int {
	n := l.g.N()
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	load := make([]int, k)

	seeds := l.spreadSeeds(k)
	for p, s := range seeds {
		parts[s] = p
		load[p] += l.weights[s]
	}

	assigned := len(seeds)
	for assigned < n {
		progress := false
		for p := 0; p < k; p++ {
			v := l.bestBoundary(parts, p, load[p], cap)
			if v < 0 {
				continue
			}
			parts[v] = p
			load[p] += l.weights[v]
			assigned++
			progress = true
			if assigned == n {
				break
			}
		}
		if !progress {
			// Remaining vertices are unreachable or every part is at
			// capacity: place each on the lightest part regardless of
			// adjacency. Capacity may be exceeded here; refinement
			// rebalances afterwards and the placement stage re-checks
			// feasibility anyway.
			for v := 0; v < n; v++ {
				if parts[v] >= 0 {
					continue
				}
				best := 0
				for p := 1; p < k; p++ {
					if load[p] < load[best] {
						best = p
					}
				}
				parts[v] = best
				load[best] += l.weights[v]
				assigned++
			}
		}
	}
	return parts
}

// spreadSeeds picks k mutually distant vertices (all n when k > n):
// the graph center first, then repeatedly the vertex maximizing the
// minimum hop distance to the chosen set (unreachable vertices count as
// infinitely far, so separate components get seeds early). Each step
// depends only on the seeds before it, so the seeds for k parts are a
// prefix of the seeds for k+1: the level keeps one walk, extends it
// when a larger k asks, and hands out a prefix that callers must not
// modify.
func (l *level) spreadSeeds(k int) []int {
	n := l.g.N()
	if k > n {
		k = n
	}
	if l.seeds == nil {
		c := l.g.Center()
		l.seeds, l.minDist = []int{c}, l.g.HopDistances(c)
	}
	for len(l.seeds) < k {
		best, bestD := -1, -2
		for v := 0; v < n; v++ {
			if chosen(l.seeds, v) {
				continue
			}
			d := l.minDist[v]
			if d < 0 {
				d = n + 1 // unreachable: maximally far
			}
			if d > bestD || (d == bestD && l.weights[v] < l.weights[best]) {
				best, bestD = v, d
			}
		}
		l.seeds = append(l.seeds, best)
		for v, d := range l.hops.HopDistances(l.g, best) {
			if d >= 0 && (l.minDist[v] < 0 || d < l.minDist[v]) {
				l.minDist[v] = d
			}
		}
	}
	return l.seeds[:k:k]
}

func chosen(seeds []int, v int) bool {
	for _, s := range seeds {
		if s == v {
			return true
		}
	}
	return false
}

// bestBoundary returns the unassigned vertex most strongly connected to
// part p that fits under cap, or -1 if none exists.
func (l *level) bestBoundary(parts []int, p, loadP, cap int) int {
	best, bestW := -1, -1.0
	for v := 0; v < l.g.N(); v++ {
		if parts[v] >= 0 || loadP+l.weights[v] > cap {
			continue
		}
		var w float64
		for _, nb := range l.g.Arcs(v) {
			if parts[nb.To] == p {
				w += nb.W
			}
		}
		if w > bestW {
			best, bestW = v, w
		}
	}
	if bestW <= 0 {
		// No connected candidate; only claim a disconnected vertex if the
		// part is still empty-ish (its seed only), to avoid scattering.
		return -1
	}
	return best
}
