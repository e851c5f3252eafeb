// Package route provides entanglement-path selection over the quantum
// cloud topology: k-shortest-path enumeration (Yen's algorithm on hop
// counts) and congestion-aware path choice for remote gates.
//
// The paper's model notes that C_ij "depends on the distance between two
// QPUs since it may require entanglement swapping at intermediate
// nodes"; its EPR setting follows concurrent entanglement-routing work
// (Shi & Qian, SIGCOMM 2020). This package supplies the corresponding
// substrate: multi-hop gates can spread their EPR attempts over
// alternative paths instead of always contending on the single shortest
// one.
package route

import (
	"slices"
	"sort"

	"cloudqc/internal/graph"
)

// KShortest returns up to k loopless shortest paths (by hop count) from
// u to v, each inclusive of both endpoints, ordered by length then
// lexicographically. Returns nil when v is unreachable. u == v yields
// the single trivial path.
func KShortest(g *graph.Graph, u, v, k int) [][]int {
	if k <= 0 {
		return nil
	}
	first := g.ShortestPath(u, v)
	if first == nil {
		return nil
	}
	paths := [][]int{first}
	if u == v {
		return paths
	}
	var candidates [][]int
	cut := make([]bool, g.N()) // cut[x]: the spur's edge to x is on a known path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Yen: for each spur node in the previous path, remove the edges
		// used by known paths sharing the root, then find a spur path.
		for i := 0; i < len(prev)-1; i++ {
			spur := prev[i]
			root := prev[:i+1]
			clear(cut)
			for _, p := range paths {
				if len(p) > i && equalPrefix(p, root) {
					cut[p[i+1]] = true
				}
			}
			// Remove root nodes (except spur) by detaching their edges,
			// keeping paths loopless.
			work := g.Without(func(a, b int) bool {
				return slices.Contains(prev[:i], a) || slices.Contains(prev[:i], b) ||
					(a == spur && cut[b]) || (b == spur && cut[a])
			})
			spurPath := work.ShortestPath(spur, v)
			if spurPath == nil {
				continue
			}
			full := append(append([]int(nil), root[:len(root)-1]...), spurPath...)
			if !containsPath(paths, full) && !containsPath(candidates, full) {
				candidates = append(candidates, full)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			return lexLess(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(set [][]int, p []int) bool {
	for _, q := range set {
		if len(q) != len(p) {
			continue
		}
		same := true
		for i := range q {
			if q[i] != p[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Table precomputes alternative paths for every QPU pair that needs
// them, so per-round path selection is a lookup.
type Table struct {
	k     int
	paths map[[2]int][][]int
}

// NewTable builds a k-alternative path table over the topology for the
// given QPU pairs (deduplicated, direction-insensitive).
func NewTable(g *graph.Graph, pairs [][2]int, k int) *Table {
	t := &Table{k: k, paths: make(map[[2]int][][]int, len(pairs))}
	for _, pr := range pairs {
		key := normPair(pr[0], pr[1])
		if _, done := t.paths[key]; done {
			continue
		}
		t.paths[key] = KShortest(g, key[0], key[1], k)
	}
	return t
}

// Paths returns the alternatives for a pair (in canonical orientation),
// or nil if the pair was not precomputed.
func (t *Table) Paths(a, b int) [][]int {
	return t.paths[normPair(a, b)]
}

// Select returns the precomputed path whose bottleneck budget is
// largest: max over paths of min over path QPUs of budget. Ties prefer
// shorter paths, then enumeration order. Falls back to nil when the
// pair has no paths.
func (t *Table) Select(a, b int, budget []int) []int {
	paths := t.Paths(a, b)
	if len(paths) == 0 {
		return nil
	}
	best, bestBottleneck := paths[0], bottleneck(paths[0], budget)
	for _, p := range paths[1:] {
		if bn := bottleneck(p, budget); bn > bestBottleneck {
			best, bestBottleneck = p, bn
		}
	}
	return best
}

func bottleneck(path []int, budget []int) int {
	bn := budget[path[0]]
	for _, q := range path[1:] {
		if budget[q] < bn {
			bn = budget[q]
		}
	}
	return bn
}

func normPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
