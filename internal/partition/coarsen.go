package partition

import (
	"math"
	"math/rand"

	"cloudqc/internal/graph"
)

// level is one graph in the multilevel hierarchy. weights[v] counts the
// original vertices collapsed into coarse vertex v. The hot refinement
// loops walk the graph's sorted adjacency (Graph.Arcs) directly.
//
// A level keeps every coarsening pass run on it, keyed by the range of
// weight caps the pass is exact for, and the seed spreading of its
// initial partition, so one Hierarchy computes each at most once.
type level struct {
	g       *graph.Graph
	weights []int
	perm    []int   // matching visit order; drawn on the first pass
	passes  []*pass // coarsenings computed so far, by cap range

	// The farthest-point seed walk so far (see spreadSeeds), with each
	// vertex's hop distance to its nearest seed.
	seeds, minDist []int
	hops           graph.HopScratch
}

// pass is one heavy-edge-matching pass from a parent level. It is the
// exact result of coarsen for every weight cap in [lo, hi): the cap
// enters the pass only through weights[u]+weights[v] > maxW on the
// pairs it evaluates, lo is the largest sum it accepted and hi the
// smallest sum it rejected, so any cap in between decides every
// comparison the same way.
type pass struct {
	lo, hi    int
	coarseMap []int  // parent vertex -> child vertex; nil with child
	child     *level // nil when matching made no progress
}

func newLevel(g *graph.Graph) *level {
	w := make([]int, g.N())
	for i := range w {
		w[i] = 1
	}
	return &level{g: g, weights: w}
}

// passFor returns the coarsening pass for weight cap maxW, running it
// only when no earlier pass on this level covers maxW.
func (l *level) passFor(seed int64, maxW int) *pass {
	for _, p := range l.passes {
		if p.lo <= maxW && maxW < p.hi {
			return p
		}
	}
	p := l.coarsen(seed, maxW)
	l.passes = append(l.passes, p)
	return p
}

// coarsen builds the next-coarser level via heavy-edge matching: visit
// vertices in a seeded random order; match each unmatched vertex with
// its heaviest-edge unmatched neighbor whose combined weight stays at or
// under maxW. The weight cap keeps star-like graphs (one hub touching
// everything, e.g. Bernstein–Vazirani interaction graphs) from
// collapsing into a single coarse vertex larger than any part — such a
// vertex could never be split again during uncoarsening. The pass has
// a nil child when matching cannot shrink the graph (e.g. no edges).
func (l *level) coarsen(seed int64, maxW int) *pass {
	n := l.g.N()
	if l.perm == nil {
		l.perm = rand.New(rand.NewSource(seed + int64(n))).Perm(n)
	}
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	p := &pass{lo: math.MinInt, hi: math.MaxInt}
	matched := 0
	for _, u := range l.perm {
		if match[u] >= 0 {
			continue
		}
		best, bestW := -1, 0.0
		for _, nb := range l.g.Arcs(u) {
			if match[nb.To] >= 0 {
				continue
			}
			sum := l.weights[u] + l.weights[nb.To]
			if sum > maxW {
				p.hi = min(p.hi, sum)
				continue
			}
			p.lo = max(p.lo, sum)
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
		return p
	}

	// Number coarse vertices deterministically by smallest fine index.
	coarseMap := make([]int, n)
	for i := range coarseMap {
		coarseMap[i] = -1
	}
	numCoarse := 0
	for v := 0; v < n; v++ {
		if coarseMap[v] >= 0 {
			continue
		}
		coarseMap[v] = numCoarse
		if match[v] != v {
			coarseMap[match[v]] = numCoarse
		}
		numCoarse++
	}

	weights := make([]int, numCoarse)
	for v := 0; v < n; v++ {
		weights[coarseMap[v]] += l.weights[v]
	}
	edges := make([]graph.Edge, 0, l.g.NumEdges())
	for u := 0; u < n; u++ {
		cu := coarseMap[u]
		for _, nb := range l.g.Arcs(u) {
			if u < nb.To {
				if cv := coarseMap[nb.To]; cu != cv {
					edges = append(edges, graph.Edge{U: cu, V: cv, W: nb.W})
				}
			}
		}
	}
	p.coarseMap, p.child = coarseMap, &level{g: graph.Build(numCoarse, edges), weights: weights}
	return p
}

// project lifts a partition of the pass's child level back to the
// parent's vertices, into parts (one entry per parent vertex), and
// returns it.
func (p *pass) project(coarseParts, parts []int) []int {
	for v, c := range p.coarseMap {
		parts[v] = coarseParts[c]
	}
	return parts
}
