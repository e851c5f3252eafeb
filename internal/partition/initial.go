package partition

// initialPartition produces a k-way assignment of the coarsest graph by
// greedy graph growing: k seeds spread by repeated farthest-vertex BFS,
// then parts claim their most-connected boundary vertex in round-robin
// until everything is assigned. cap bounds each part's total fine-vertex
// weight (coarse vertices carry the weight of everything merged into
// them). The assignment is written into parts (one entry per vertex)
// and returned; s supplies the loads and the frontiers.
func (l *level) initialPartition(k, cap int, parts []int, s *scratch) []int {
	n := l.g.N()
	for i := range parts {
		parts[i] = -1
	}
	load := s.load[:k]
	clear(load)
	if len(s.inFront) < k*n {
		s.inFront = make([]bool, k*n)
	}
	inFront := s.inFront[:k*n]
	clear(inFront)
	for p := range k {
		s.front[p] = s.front[p][:0]
	}
	// claim assigns v to p and puts v's unassigned neighbours on p's
	// frontier, each at most once.
	claim := func(v, p int) {
		parts[v] = p
		load[p] += l.weights[v]
		for _, nb := range l.g.Arcs(v) {
			if u := nb.To; parts[u] < 0 && !inFront[p*n+u] {
				inFront[p*n+u] = true
				s.front[p] = append(s.front[p], u)
			}
		}
	}

	seeds := l.spreadSeeds(k)
	for p, v := range seeds {
		claim(v, p)
	}

	assigned := len(seeds)
	for assigned < n {
		progress := false
		for p := 0; p < k; p++ {
			v := l.bestBoundary(parts, p, load[p], cap, s)
			if v < 0 {
				continue
			}
			claim(v, p)
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
// part p that fits under cap, the lowest-indexed among equals, or -1 if
// no vertex has a positive connection. Only p's frontier can have one:
// a vertex off it has no arc into p. A frontier vertex that is
// assigned or does not fit leaves the frontier for good, since p's
// load only grows. Each connection is summed over the vertex's arcs in
// adjacency order, as a scan of every vertex would sum it.
func (l *level) bestBoundary(parts []int, p, loadP, cap int, s *scratch) int {
	best, bestW := -1, 0.0
	front := s.front[p][:0]
	for _, v := range s.front[p] {
		if parts[v] >= 0 || loadP+l.weights[v] > cap {
			continue
		}
		front = append(front, v)
		var w float64
		for _, nb := range l.g.Arcs(v) {
			if parts[nb.To] == p {
				w += nb.W
			}
		}
		if w > bestW || (w == bestW && v < best) {
			best, bestW = v, w
		}
	}
	s.front[p] = front
	return best
}
