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
//
// A vertex costs what its arcs touch. ext[v] counts v's neighbours in
// other parts, is built once per call and kept up to date by each move,
// so an interior vertex is skipped in O(1). A boundary vertex sums its
// connection only to the parts its arcs reach. When its connection to
// its own part is positive, a part it does not reach has negative gain
// and cannot be chosen, so only the reached parts are scanned; otherwise
// every part is. Either way the choice is the lowest-indexed part with
// the largest positive gain, or failing that the lowest-indexed
// strictly lighter part with zero gain.
func (l *level) refine(parts []int, k, cap int, s *scratch) {
	n := l.g.N()
	load, count := s.load[:k], s.count[:k]
	clear(load)
	clear(count)
	ext := s.ext[:n]
	for v := 0; v < n; v++ {
		load[parts[v]] += l.weights[v]
		count[parts[v]]++
		ext[v] = 0
		for _, nb := range l.g.Arcs(v) {
			if parts[nb.To] != parts[v] {
				ext[v]++
			}
		}
	}
	conn := s.conn[:k] // all zero between vertices
	for {
		moved := false
		for v := 0; v < n; v++ {
			from := parts[v]
			if count[from] <= 1 || ext[v] == 0 {
				continue // never empty a part; interior vertices cannot gain
			}
			touched := s.touched[:0]
			for _, nb := range l.g.Arcs(v) {
				p := parts[nb.To]
				if !s.isTouched[p] {
					s.isTouched[p] = true
					touched = append(touched, p)
				}
				conn[p] += nb.W
			}
			s.touched = touched

			// Scan the reached parts, or every part (ids) when a part
			// the arcs miss could gain.
			cands := touched
			if conn[from] <= 0 {
				cands = s.ids[:k]
			}
			wv := l.weights[v]
			bestTo, bestGain, zeroTo := -1, 0.0, -1
			for _, to := range cands {
				if to == from || load[to]+wv > cap {
					continue
				}
				// Accept strictly positive gains; on zero gain accept a
				// move that improves balance, which opens escapes from
				// local minima without oscillation (ties move only toward
				// strictly lighter parts).
				switch gain := conn[to] - conn[from]; {
				case gain > bestGain || (gain == bestGain && gain > 0 && to < bestTo):
					bestTo, bestGain = to, gain
				case gain == 0 && load[to]+wv < load[from] && (zeroTo < 0 || to < zeroTo):
					zeroTo = to
				}
			}
			for _, p := range touched {
				conn[p], s.isTouched[p] = 0, false
			}
			if bestTo < 0 {
				bestTo = zeroTo
			}
			if bestTo < 0 {
				continue
			}

			parts[v] = bestTo
			load[from] -= wv
			load[bestTo] += wv
			count[from]--
			count[bestTo]++
			ext[v] = 0
			for _, nb := range l.g.Arcs(v) {
				switch parts[nb.To] {
				case from:
					ext[nb.To]++
					ext[v]++
				case bestTo:
					ext[nb.To]--
				default:
					ext[v]++
				}
			}
			moved = true
		}
		if !moved {
			break
		}
	}
}
