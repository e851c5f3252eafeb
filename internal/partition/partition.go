// Package partition implements a multilevel k-way graph partitioner in
// the METIS family [Karypis & Kumar]: heavy-edge-matching coarsening, a
// greedy graph-growing initial partition on the coarsest graph, and
// boundary Kernighan–Lin refinement during uncoarsening.
//
// CloudQC partitions circuit interaction graphs with it (paper Sec. V-B,
// "Partitioning quantum circuit"), sweeping the imbalance factor to
// produce candidate placements. The factor only sets the part-size cap
// (Capacity), which is what a Hierarchy partitions at.
//
// Graphs are immutable, so a Hierarchy reads its input graph in place
// and builds each coarse level once, with one graph.Build.
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
// Capacity(n, k, imbalance), and returns the assignment with the edge
// cut minimized heuristically. The same inputs always produce the same
// partition (seed controls matching tie-breaks).
//
// imbalance must be finite and >= 0; 0.05 to 0.5 are typical sweep
// values. KWay is a one-shot Hierarchy: a caller partitioning one graph
// at several (k, cap) points should build the Hierarchy itself.
func KWay(g *graph.Graph, k int, imbalance float64, seed int64) (*Result, error) {
	if !ValidImbalance(imbalance) {
		return nil, fmt.Errorf("partition: imbalance %v is not finite and >= 0", imbalance)
	}
	return NewHierarchy(g, seed).Partition(k, Capacity(g.N(), k, imbalance))
}

// ValidImbalance reports whether KWay accepts imbalance: finite and
// >= 0, so not NaN.
func ValidImbalance(imbalance float64) bool {
	return imbalance >= 0 && !math.IsInf(imbalance, 1)
}

// Capacity is the part-size cap of n vertices in k parts at imbalance
// factor imbalance: ⌈n/k·(1+imbalance)⌉, saturated at 2n. No coarse
// vertex and no part ever weighs more than n, so every cap from 2n up
// partitions alike, and saturating keeps a huge finite imbalance from
// overflowing the int. imbalance must pass ValidImbalance and k must be
// at least 1.
func Capacity(n, k int, imbalance float64) int {
	c := math.Ceil(float64(n) / float64(k) * (1 + imbalance))
	if c >= float64(2*n) {
		return 2 * n
	}
	return int(c)
}

// Hierarchy is the multilevel coarsening of one graph under one seed,
// shared by every (k, cap) point partitioned through it. Each point
// coarsens with its own vertex-weight cap; a coarsening pass is kept
// with the range of caps it is exact for, and the coarsest level's
// seed spreading with it, so points that agree on a pass run it once.
// Partition returns exactly what a fresh Hierarchy returns for the
// same arguments, in any order of calls.
//
// A Hierarchy holds every level it has built, and the scratch that
// initial growth, refinement and projection reuse from point to point,
// so it is not safe for concurrent use. A Result it returns shares no
// storage with it.
type Hierarchy struct {
	root *level
	seed int64
	s    scratch
}

// NewHierarchy returns an empty hierarchy over g; levels are built as
// Partition asks for them.
func NewHierarchy(g *graph.Graph, seed int64) *Hierarchy {
	return &Hierarchy{root: newLevel(g), seed: seed}
}

// Partition splits the hierarchy's graph into k parts of at most cap
// vertices each; KWay(g, k, α, seed) is Partition(k, Capacity(n, k, α))
// on a Hierarchy of g and seed. The imbalance factor reaches the
// partitioner only through cap, so factors that share a cap at k share
// a partition. cap must be at least ⌈n/k⌉.
func (h *Hierarchy) Partition(k, cap int) (*Result, error) {
	g := h.root.g
	n := g.N()
	switch {
	case k < 1:
		return nil, fmt.Errorf("partition: k = %d < 1", k)
	case k > n:
		return nil, fmt.Errorf("partition: k = %d exceeds %d vertices", k, n)
	case cap < (n+k-1)/k:
		return nil, fmt.Errorf("partition: cap %d cannot hold %d vertices in %d parts", cap, n, k)
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

	// Coarse vertices may not outgrow half a part: anything bigger robs
	// the initial partition and refinement of the granularity they need
	// to balance parts.
	maxVertexWeight := cap / 2
	if maxVertexWeight < 2 {
		maxVertexWeight = 2
	}
	s := &h.s
	s.init(n)
	// path[i] is the pass from level i to level i+1; level 0 is the root.
	lvl, path := h.root, s.path[:0]
	for lvl.g.N() > coarsestSize(k) {
		p := lvl.passFor(h.seed, maxVertexWeight)
		if p.child == nil { // matching made no progress
			break
		}
		path = append(path, p)
		lvl = p.child
	}
	s.path = path

	// Level i's assignment lives in buf[i%2], except the finest level's
	// (i = 0), which is returned and so gets fresh storage.
	into := func(i, n int) []int {
		if i == 0 {
			return make([]int, n)
		}
		return s.buf[i%2][:n]
	}
	parts := lvl.initialPartition(k, cap, into(len(path), lvl.g.N()), s)
	lvl.refine(parts, k, cap, s)
	for i := len(path) - 1; i >= 0; i-- {
		parent := h.root
		if i > 0 {
			parent = path[i-1].child
		}
		parts = path[i].project(parts, into(i, parent.g.N()))
		parent.refine(parts, k, cap, s)
	}
	return finish(g, parts, k), nil
}

// scratch is the per-point working storage of a Hierarchy: the pass
// path, part loads and counts, refinement's connection accumulator with
// the parts it touched, each vertex's count of neighbours in other
// parts, the initial partition's frontiers, and two assignment buffers
// that projection alternates between. Every level has at most the
// root's n vertices and every point at most n parts, so all but the
// frontier marks are sized once, by n.
type scratch struct {
	path        []*pass
	load, count []int
	conn        []float64 // all zero between refinement's vertices
	touched     []int     // parts with a conn entry, in first-touch order
	isTouched   []bool    // by part; false between vertices
	ids         []int     // 0, 1, …, n-1: every part
	ext         []int     // by vertex
	front       [][]int   // by part
	inFront     []bool    // k×n: part p's frontier has held vertex v
	buf         [2][]int
}

// init sizes the scratch for a root of n vertices on first use.
func (s *scratch) init(n int) {
	if s.load != nil {
		return
	}
	s.load, s.count, s.ext = make([]int, n), make([]int, n), make([]int, n)
	s.conn, s.isTouched = make([]float64, n), make([]bool, n)
	s.front = make([][]int, n)
	s.ids = make([]int, n)
	for i := range s.ids {
		s.ids[i] = i
	}
	s.buf = [2][]int{make([]int, n), make([]int, n)}
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
