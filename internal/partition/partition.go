// Package partition implements a multilevel k-way graph partitioner in
// the METIS family [Karypis & Kumar]: heavy-edge-matching coarsening, a
// greedy graph-growing initial partition on the coarsest graph, and
// boundary Kernighan–Lin refinement during uncoarsening.
//
// CloudQC partitions circuit interaction graphs with it (paper Sec. V-B,
// "Partitioning quantum circuit"), sweeping the imbalance factor to
// produce candidate placements.
package partition

import (
	"fmt"
	"math"

	"cloudqc/internal/graph"
)

// Result describes a k-way partition of a graph.
type Result struct {
	// Parts maps each vertex to its part in [0, K).
	Parts []int
	// K is the number of parts requested.
	K int
	// Cut is the total weight of edges crossing parts.
	Cut float64
	// Sizes holds the number of vertices in each part.
	Sizes []int
}

// KWay partitions g into k parts, keeping every part's size at most
// ⌈n/k⌉·(1+imbalance), and returns the assignment with the edge cut
// minimized heuristically. The same inputs always produce the same
// partition (seed controls matching tie-breaks).
//
// imbalance must be finite and >= 0; 0.05 to 0.5 are typical sweep
// values. KWay is a one-shot Hierarchy: a caller partitioning one graph
// at several (k, imbalance) points should build the Hierarchy itself.
func KWay(g *graph.Graph, k int, imbalance float64, seed int64) (*Result, error) {
	return NewHierarchy(g, seed).Partition(k, imbalance)
}

// Hierarchy is the multilevel coarsening of one graph under one seed,
// shared by every (k, imbalance) point partitioned through it. Each
// point coarsens with its own vertex-weight cap; a coarsening pass is
// kept with the range of caps it is exact for, and the coarsest
// level's seed spreading with it, so points that agree on a pass run
// it once. Partition returns exactly what KWay returns for the same
// arguments, in any order of calls.
//
// A Hierarchy holds every level it has built and is not safe for
// concurrent use.
type Hierarchy struct {
	root *level
	seed int64
}

// NewHierarchy returns an empty hierarchy over g; levels are built as
// Partition asks for them. g must not be mutated while the Hierarchy
// is in use.
func NewHierarchy(g *graph.Graph, seed int64) *Hierarchy {
	return &Hierarchy{root: newLevel(g), seed: seed}
}

// Partition is KWay(g, k, imbalance, seed) for the hierarchy's graph
// and seed.
func (h *Hierarchy) Partition(k int, imbalance float64) (*Result, error) {
	g := h.root.g
	n := g.N()
	switch {
	case k < 1:
		return nil, fmt.Errorf("partition: k = %d < 1", k)
	case k > n:
		return nil, fmt.Errorf("partition: k = %d exceeds %d vertices", k, n)
	case math.IsNaN(imbalance) || math.IsInf(imbalance, 0):
		return nil, fmt.Errorf("partition: non-finite imbalance %v", imbalance)
	case imbalance < 0:
		return nil, fmt.Errorf("partition: negative imbalance %v", imbalance)
	}
	if k == 1 {
		return finish(g, make([]int, n), 1), nil
	}
	if k == n {
		parts := make([]int, n)
		for i := range parts {
			parts[i] = i
		}
		return finish(g, parts, k), nil
	}

	cap := capacityFor(n, k, imbalance)
	// Coarse vertices may not outgrow half a part: anything bigger robs
	// the initial partition and refinement of the granularity they need
	// to balance parts.
	maxVertexWeight := cap / 2
	if maxVertexWeight < 2 {
		maxVertexWeight = 2
	}
	lvl := h.root
	var parents []*level
	var passes []*pass
	for lvl.g.N() > coarsestSize(k) {
		p := lvl.passFor(h.seed, maxVertexWeight)
		if p.child == nil { // matching made no progress
			break
		}
		parents = append(parents, lvl)
		passes = append(passes, p)
		lvl = p.child
	}

	parts := lvl.initialPartition(k, cap)
	lvl.refine(parts, k, cap)
	for i := len(passes) - 1; i >= 0; i-- {
		parts = passes[i].project(parts)
		parents[i].refine(parts, k, cap)
	}
	return finish(g, parts, k), nil
}

func capacityFor(n, k int, imbalance float64) int {
	target := float64(n) / float64(k)
	c := int(math.Ceil(target * (1 + imbalance)))
	if c < 1 {
		c = 1
	}
	return c
}

// coarsestSize is the vertex count at which coarsening stops: enough
// vertices that the initial partition has room to seed k parts.
func coarsestSize(k int) int {
	s := 4 * k
	if s < 24 {
		s = 24
	}
	return s
}

// Cut returns the total weight of edges whose endpoints are in different
// parts under the given assignment.
func Cut(g *graph.Graph, parts []int) float64 {
	var cut float64
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Arcs(u) {
			if u < a.To && parts[u] != parts[a.To] {
				cut += a.W
			}
		}
	}
	return cut
}

func finish(g *graph.Graph, parts []int, k int) *Result {
	sizes := make([]int, k)
	for _, p := range parts {
		sizes[p]++
	}
	return &Result{Parts: parts, K: k, Cut: Cut(g, parts), Sizes: sizes}
}
