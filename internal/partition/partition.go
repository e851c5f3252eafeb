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
// imbalance must be >= 0; 0.05 to 0.5 are typical sweep values.
func KWay(g *graph.Graph, k int, imbalance float64, seed int64) (*Result, error) {
	n := g.N()
	switch {
	case k < 1:
		return nil, fmt.Errorf("partition: k = %d < 1", k)
	case k > n:
		return nil, fmt.Errorf("partition: k = %d exceeds %d vertices", k, n)
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
	lvl := newLevel(g)
	var stack []*level
	for lvl.g.N() > coarsestSize(k) {
		next := lvl.coarsen(seed, maxVertexWeight)
		if next == nil { // matching made no progress
			break
		}
		stack = append(stack, lvl)
		lvl = next
	}

	parts := lvl.initialPartition(k, cap)
	lvl.refine(parts, k, cap)
	for i := len(stack) - 1; i >= 0; i-- {
		parent := stack[i]
		parts = parent.project(parts)
		lvl = parent
		lvl.refine(parts, k, cap)
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
