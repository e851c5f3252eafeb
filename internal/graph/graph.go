// Package graph provides the weighted undirected graphs used throughout
// CloudQC: circuit interaction graphs, QPU topologies, and the contracted
// partition graphs exchanged between the placement stages.
//
// Vertices are dense integers in [0, N). Edge weights are float64 and
// symmetric. The zero value of Graph is not usable; construct with New.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a weighted undirected graph over vertices 0..N-1.
// Parallel edges are merged by summing weights. Self-loops are rejected.
//
// Each vertex stores its adjacency list sorted by neighbour index, kept
// sorted by every mutation. Traversals walk it in place, so they visit
// neighbours in ascending order without sorting or allocating per
// vertex, and a graph that is no longer mutated (a cloud topology) can
// be read from many goroutines at once.
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

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{n: n, adj: make([][]Arc, n)}
}

// FromMatrix returns the graph on n vertices whose edge {u, v} weighs
// w[u*n+v], with an edge for every nonzero entry. w must be symmetric
// with a zero diagonal. The adjacency lists are filled in ascending
// order into one backing array, with none of AddEdge's sorted inserts,
// and each list is capped at its own length, so mutating the graph
// later reallocates a list instead of overwriting the next one.
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
	g, all := New(n), make([]Arc, 0, arcs)
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

// arc returns u's entry for v, inserting a zero-weight one if absent.
// The pointer is valid until the next insertion or removal.
func (g *Graph) arc(u, v int) *Arc {
	i, ok := g.find(u, v)
	if !ok {
		g.adj[u] = slices.Insert(g.adj[u], i, Arc{To: v})
	}
	return &g.adj[u][i]
}

// remove drops the half-edge u→v if present.
func (g *Graph) remove(u, v int) {
	if i, ok := g.find(u, v); ok {
		g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	}
}

// AddEdge adds weight w to the edge {u, v}, creating it if absent.
// Adding a self-loop or an out-of-range endpoint panics: both indicate a
// programming error in the caller, not a recoverable condition.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.checkPair(u, v)
	g.arc(u, v).W += w
	g.arc(v, u).W += w
}

// SetEdge sets the weight of edge {u, v}, overwriting any previous weight.
// A weight of 0 removes the edge.
func (g *Graph) SetEdge(u, v int, w float64) {
	g.checkPair(u, v)
	if w == 0 {
		g.remove(u, v)
		g.remove(v, u)
		return
	}
	g.arc(u, v).W = w
	g.arc(v, u).W = w
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

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
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

// Neighbors returns the neighbors of u in ascending order. The returned
// slice is a fresh copy that the graph never touches again: callers may
// modify it, and may mutate the graph (say, SetEdge(u, nb, 0) for every
// nb) while ranging over it. Read-only loops that want no copy use Arcs.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	ns := make([]int, len(g.adj[u]))
	for i, a := range g.adj[u] {
		ns[i] = a.To
	}
	return ns
}

// Arcs returns u's adjacency list in ascending neighbour order. The
// slice is the graph's own storage: callers must not modify it, and it
// is valid only until the graph is next mutated.
func (g *Graph) Arcs(u int) []Arc {
	g.check(u)
	return g.adj[u]
}

// Edge is one undirected edge with U < V.
type Edge struct {
	U, V int
	W    float64
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

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u, as := range g.adj {
		c.adj[u] = slices.Clone(as)
	}
	return c
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
	sub := New(len(keep))
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
