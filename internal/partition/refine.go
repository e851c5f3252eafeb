package partition

// refine runs boundary Kernighan–Lin passes to convergence: each pass
// scans boundary vertices in index order and applies the single best
// positive-gain move available for that vertex, provided the
// destination part stays under cap and the source part does not empty.
// Sweeping stops when a pass makes no move — which must happen: every
// move strictly decreases the lexicographic potential (cut, Σ load²)
// (positive-gain moves cut the cut, zero-gain moves only go to strictly
// lighter parts), so no state repeats and the finite state space bounds
// the move count. A fixed pass budget (the old bound was 4) could stop
// short and leave obviously improvable boundary vertices behind, which
// TestQuickLocalOptimality caught intermittently.
func (l *level) refine(parts []int, k, cap int) {
	n := l.g.N()
	load := make([]int, k)
	count := make([]int, k)
	for v := 0; v < n; v++ {
		load[parts[v]] += l.weights[v]
		count[parts[v]]++
	}
	conn := make([]float64, k) // reused per-vertex connection accumulator
	for {
		moved := false
		for v := 0; v < n; v++ {
			from := parts[v]
			if count[from] <= 1 {
				continue // never empty a part
			}
			for i := range conn {
				conn[i] = 0
			}
			boundary := false
			for _, nb := range l.g.Arcs(v) {
				conn[parts[nb.To]] += nb.W
				if parts[nb.To] != from {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			bestTo, bestGain := -1, 0.0
			for to := 0; to < k; to++ {
				if to == from || load[to]+l.weights[v] > cap {
					continue
				}
				gain := conn[to] - conn[from]
				// Accept strictly positive gains; on zero gain accept a
				// move that improves balance, which opens escapes from
				// local minima without oscillation (ties move only toward
				// strictly lighter parts).
				if gain > bestGain ||
					(gain == bestGain && bestTo < 0 && gain == 0 && load[to]+l.weights[v] < load[from]) {
					bestTo, bestGain = to, gain
				}
			}
			if bestTo >= 0 && (bestGain > 0 || load[bestTo]+l.weights[v] < load[from]) {
				parts[v] = bestTo
				load[from] -= l.weights[v]
				load[bestTo] += l.weights[v]
				count[from]--
				count[bestTo]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}
