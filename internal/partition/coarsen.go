package partition

import (
	"math/rand"

	"cloudqc/internal/graph"
)

// level is one graph in the multilevel hierarchy. weights[v] counts the
// original vertices collapsed into coarse vertex v; coarseMap[v] names
// the coarse vertex that fine vertex v was merged into. The hot
// refinement loops walk the graph's sorted adjacency (Graph.Arcs)
// directly.
type level struct {
	g         *graph.Graph
	weights   []int
	coarseMap []int // set by coarsen on the *parent* level
}

func newLevel(g *graph.Graph) *level {
	w := make([]int, g.N())
	for i := range w {
		w[i] = 1
	}
	return &level{g: g, weights: w}
}

// coarsen builds the next-coarser level via heavy-edge matching: visit
// vertices in a seeded random order; match each unmatched vertex with
// its heaviest-edge unmatched neighbor whose combined weight stays at or
// under maxW. The weight cap keeps star-like graphs (one hub touching
// everything, e.g. Bernstein–Vazirani interaction graphs) from
// collapsing into a single coarse vertex larger than any part — such a
// vertex could never be split again during uncoarsening. Returns nil
// when matching cannot shrink the graph (e.g. no edges).
func (l *level) coarsen(seed int64, maxW int) *level {
	n := l.g.N()
	rng := rand.New(rand.NewSource(seed + int64(n)))
	order := rng.Perm(n)
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	matched := 0
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		best, bestW := -1, 0.0
		for _, nb := range l.g.Arcs(u) {
			if match[nb.To] >= 0 || l.weights[u]+l.weights[nb.To] > maxW {
				continue
			}
			// Prefer heavier edges; among equals prefer lighter coarse
			// vertices to keep weights balanced; then lower index.
			if best < 0 || nb.W > bestW ||
				(nb.W == bestW && l.weights[nb.To] < l.weights[best]) ||
				(nb.W == bestW && l.weights[nb.To] == l.weights[best] && nb.To < best) {
				best, bestW = nb.To, nb.W
			}
		}
		if best >= 0 {
			match[u], match[best] = best, u
			matched++
		} else {
			match[u] = u // self-matched singleton
		}
	}
	if matched == 0 {
		return nil
	}

	// Number coarse vertices deterministically by smallest fine index.
	l.coarseMap = make([]int, n)
	for i := range l.coarseMap {
		l.coarseMap[i] = -1
	}
	numCoarse := 0
	for v := 0; v < n; v++ {
		if l.coarseMap[v] >= 0 {
			continue
		}
		l.coarseMap[v] = numCoarse
		if match[v] != v {
			l.coarseMap[match[v]] = numCoarse
		}
		numCoarse++
	}

	coarse := graph.New(numCoarse)
	weights := make([]int, numCoarse)
	for v := 0; v < n; v++ {
		weights[l.coarseMap[v]] += l.weights[v]
	}
	for u := 0; u < n; u++ {
		cu := l.coarseMap[u]
		for _, nb := range l.g.Arcs(u) {
			if u < nb.To {
				if cv := l.coarseMap[nb.To]; cu != cv {
					coarse.AddEdge(cu, cv, nb.W)
				}
			}
		}
	}
	return &level{g: coarse, weights: weights}
}

// project lifts a coarse partition back to this level's vertices.
func (l *level) project(coarseParts []int) []int {
	parts := make([]int, l.g.N())
	for v := range parts {
		parts[v] = coarseParts[l.coarseMap[v]]
	}
	return parts
}
