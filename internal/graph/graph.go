// Package graph provides the weighted undirected graphs used throughout
// CloudQC: circuit interaction graphs, QPU topologies, and the contracted
// partition graphs exchanged between the placement stages.
//
// Vertices are dense integers in [0, N). Edge weights are float64 and
// symmetric. A graph is immutable: it is built once, from an edge list
// (Build) or a dense weight matrix (FromMatrix), so any number of
// goroutines may share it. The zero value of Graph is not usable.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable weighted undirected graph over vertices 0..N-1.
// Self-loops are rejected.
//
// Each vertex stores its adjacency list sorted by neighbour index.
// Traversals walk it in place, so they visit neighbours in ascending
// order without sorting or allocating per vertex.
type Graph struct {
	n   int
	adj [][]Arc
}

// Arc is one entry of a vertex's adjacency list: the neighbour To and
// the weight W of the edge to it.
type Arc struct {
	To int
	W  float64
}

// Edge is one undirected edge {U, V} of weight W.
type Edge struct {
	U, V int
	W    float64
}

// Build returns the graph on n vertices with the given edges. Parallel
// edges are merged: their weights are summed in input order, starting
// from 0. A listed pair keeps its edge even when its weights sum to 0.
// A negative n, an out-of-range endpoint or a self-loop panics: each
// indicates a programming error in the caller, not a recoverable
// condition. No sort runs over all half-edges: a counting pass buckets
// them by endpoint, and each bucket is merged and sorted on its own.
func Build(n int, edges []Edge) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g, off := &Graph{n: n, adj: make([][]Arc, n)}, make([]int, n+1)
	for _, e := range edges {
		g.checkPair(e.U, e.V)
		off[e.U]++
		off[e.V]++
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	// Filling backwards keeps each bucket in input order and leaves
	// half[off[u]:off[u+1]] as u's bucket.
	half := make([]Arc, off[n])
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		off[e.U]--
		half[off[e.U]] = Arc{To: e.V, W: e.W}
		off[e.V]--
		half[off[e.V]] = Arc{To: e.U, W: e.W}
	}
	// Merge each bucket in place into u's list half[lo:out]. out never
	// passes the read position, and slot[v] holds where v's arc went in
	// the latest list to meet it, so slot[v] >= lo marks v as in u's.
	slot, out := make([]int, n), 0
	for i := range slot {
		slot[i] = -1
	}
	for u := 0; u < n; u++ {
		lo := out
		for _, a := range half[off[u]:off[u+1]] {
			if s := slot[a.To]; s >= lo {
				half[s].W += a.W
				continue
			}
			slot[a.To] = out
			half[out] = Arc{To: a.To}
			half[out].W += a.W // from 0, like every later weight
			out++
		}
		g.adj[u] = half[lo:out:out]
		slices.SortFunc(g.adj[u], func(a, b Arc) int { return cmp.Compare(a.To, b.To) })
	}
	return g
}

// FromMatrix returns the graph on n vertices whose edge {u, v} weighs
// w[u*n+v], with an edge for every nonzero entry. w must be symmetric
// with a zero diagonal. The adjacency lists are filled in ascending
// order into one backing array.
func FromMatrix(n int, w []float64) *Graph {
	if len(w) != n*n {
		panic(fmt.Sprintf("graph: %d matrix entries for %d vertices", len(w), n))
	}
	arcs := 0
	for _, x := range w {
		if x != 0 {
			arcs++
		}
	}
	g, all := &Graph{n: n, adj: make([][]Arc, n)}, make([]Arc, 0, arcs)
	for u := 0; u < n; u++ {
		lo := len(all)
		for v, x := range w[u*n : (u+1)*n] {
			if x != 0 {
				all = append(all, Arc{To: v, W: x})
			}
		}
		g.adj[u] = all[lo:len(all):len(all)]
	}
	return g
}

// Without returns a copy of g without the edges {u, v} for which
// drop(u, v) reports true. drop is asked with u < v, once for each half
// of an edge, so it must give the same answer for the same pair. g is
// unchanged.
func (g *Graph) Without(drop func(u, v int) bool) *Graph {
	all := make([]Arc, 0, 2*g.NumEdges())
	c := &Graph{n: g.n, adj: make([][]Arc, g.n)}
	for u, as := range g.adj {
		lo := len(all)
		for _, a := range as {
			if !drop(min(u, a.To), max(u, a.To)) {
				all = append(all, a)
			}
		}
		c.adj[u] = all[lo:len(all):len(all)]
	}
	return c
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// find returns the position of v in u's adjacency list, or where it
// would be inserted, and whether it is present.
func (g *Graph) find(u, v int) (int, bool) {
	as := g.adj[u]
	lo, hi := 0, len(as)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if as[mid].To < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(as) && as[lo].To == v
}

// Weight returns the weight of edge {u, v}, or 0 if the edge is absent.
func (g *Graph) Weight(u, v int) float64 {
	g.check(u)
	g.check(v)
	if i, ok := g.find(u, v); ok {
		return g.adj[u][i].W
	}
	return 0
}

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.find(u, v)
	return ok
}

// WeightedDegree returns the sum of edge weights incident to u.
func (g *Graph) WeightedDegree(u int) float64 {
	g.check(u)
	var s float64
	for _, a := range g.adj[u] {
		s += a.W
	}
	return s
}

// Arcs returns u's adjacency list in ascending neighbour order. The
// slice is the graph's own storage: callers must not modify it.
func (g *Graph) Arcs(u int) []Arc {
	g.check(u)
	return g.adj[u]
}

// Edges returns all edges sorted by (U, V). Each undirected edge appears
// exactly once with U < V.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for u, as := range g.adj {
		for _, a := range as {
			if u < a.To {
				es = append(es, Edge{U: u, V: a.To, W: a.W})
			}
		}
	}
	return es
}

// NumEdges returns the number of distinct undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, as := range g.adj {
		total += len(as)
	}
	return total / 2
}

// TotalWeight returns the sum of all edge weights (each edge counted once).
func (g *Graph) TotalWeight() float64 {
	var s float64
	for u, as := range g.adj {
		for _, a := range as {
			if u < a.To {
				s += a.W
			}
		}
	}
	return s
}

// Subgraph returns the induced subgraph on the given vertices along with
// the mapping from new vertex index to original vertex. Duplicate vertices
// in the input are ignored.
func (g *Graph) Subgraph(vertices []int) (*Graph, []int) {
	for _, v := range vertices {
		g.check(v)
	}
	keep := slices.Clone(vertices)
	sort.Ints(keep)
	keep = slices.Compact(keep)
	index := make([]int, g.n)
	for i := range index {
		index[i] = -1
	}
	for i, v := range keep {
		index[v] = i
	}
	sub := &Graph{n: len(keep), adj: make([][]Arc, len(keep))}
	for i, v := range keep {
		// Ascending originals map to ascending new indices, so each
		// list comes out sorted.
		for _, a := range g.adj[v] {
			if j := index[a.To]; j >= 0 {
				sub.adj[i] = append(sub.adj[i], Arc{To: j, W: a.W})
			}
		}
	}
	return sub, keep
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

func (g *Graph) checkPair(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
}
