package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refGraph is a naive map-of-maps graph with the textbook traversals,
// kept as the oracle for the sorted-adjacency Graph: every answer of
// Graph must equal refGraph's on the same edge multiset. It sums
// parallel edges with r[u][v] += w in input order, which fixes the
// bits Build must produce.
type refGraph []map[int]float64

func newRef(n int, edges []Edge) refGraph {
	r := make(refGraph, n)
	for i := range r {
		r[i] = map[int]float64{}
	}
	for _, e := range edges {
		r[e.U][e.V] += e.W
		r[e.V][e.U] += e.W
	}
	return r
}

func (r refGraph) arcs(u int) []Arc {
	as := make([]Arc, 0, len(r[u]))
	for _, v := range r.neighbors(u) {
		as = append(as, Arc{To: v, W: r[u][v]})
	}
	return as
}

func (r refGraph) neighbors(u int) []int {
	ns := make([]int, 0, len(r[u]))
	for v := range r[u] {
		ns = append(ns, v)
	}
	sort.Ints(ns)
	return ns
}

func (r refGraph) bfs(start int) (order, dist, parent []int) {
	dist = make([]int, len(r))
	parent = make([]int, len(r))
	for i := range dist {
		dist[i], parent[i] = -1, -1
	}
	dist[start], parent[start] = 0, start
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range r.neighbors(u) {
			if dist[v] < 0 {
				dist[v], parent[v] = dist[u]+1, u
				queue = append(queue, v)
			}
		}
	}
	return order, dist, parent
}

func (r refGraph) shortestPath(u, v int) []int {
	_, dist, parent := r.bfs(u)
	if dist[v] < 0 {
		return nil
	}
	path := []int{v}
	for x := v; x != u; x = parent[x] {
		path = append([]int{parent[x]}, path...)
	}
	return path
}

func (r refGraph) weightedDegree(u int) float64 {
	var s float64
	for _, v := range r.neighbors(u) {
		s += r[u][v]
	}
	return s
}

func (r refGraph) center() int {
	best, bestEcc, bestDeg := -1, -1, 0.0
	for v := range r {
		_, dist, _ := r.bfs(v)
		ecc := slices.Max(dist)
		deg := r.weightedDegree(v)
		if best < 0 || ecc < bestEcc || (ecc == bestEcc && deg > bestDeg) {
			best, bestEcc, bestDeg = v, ecc, deg
		}
	}
	return best
}

// refCenter is Center as it was before its full-degree shortcut and
// BFS cut-off: one complete BFS per vertex, comparing eccentricity,
// then weighted degree, in index order. It is the oracle for
// TestQuickCenterMatchesReference, and runs its own BFS over g.Arcs so
// that it shares no search code with Center.
func refCenter(g *Graph) int {
	best, bestEcc, bestDeg := -1, -1, 0.0
	for v := 0; v < g.N(); v++ {
		ecc := refEccentricity(g, v)
		deg := g.WeightedDegree(v)
		switch {
		case best < 0, ecc < bestEcc, ecc == bestEcc && deg > bestDeg:
			best, bestEcc, bestDeg = v, ecc, deg
		}
	}
	return best
}

// refEccentricity is the longest hop distance from start to a vertex it
// reaches, by a textbook BFS over g.Arcs.
func refEccentricity(g *Graph, start int) int {
	dist := map[int]int{start: 0}
	ecc := 0
	for queue := []int{start}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		ecc = max(ecc, dist[u])
		for _, a := range g.Arcs(u) {
			if _, seen := dist[a.To]; !seen {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return ecc
}

// centerCase draws one seeded graph from the families Center has to
// get right: sparse and dense G(n, p) graphs, complete and nearly complete graphs with
// tied and NaN weights, stars with extra leaf edges, multigraphs with
// isolated vertices and zero-weight arcs, and FromMatrix part graphs.
func centerCase(seed int64) (string, *Graph) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(12)
	ws := []float64{1, 1, 2, 0, math.NaN(), 0.5}
	w := func() float64 { return ws[rng.Intn(len(ws))] }
	switch family := rng.Intn(5); family {
	case 0: // up to 40 vertices, sparse enough for long eccentricities
		return "random", Random(1+rng.Intn(40), rng.Float64()*rng.Float64(), seed)
	case 1: // complete, less a few edges now and then
		var edges []Edge
		drop := rng.Intn(3)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if drop > 0 && rng.Intn(n) == 0 {
					drop--
					continue
				}
				edges = append(edges, Edge{U: u, V: v, W: w()})
			}
		}
		return "complete", Build(n, edges)
	case 2: // a star around hub, plus a few edges between leaves
		hub := rng.Intn(n)
		var edges []Edge
		for v := 0; v < n; v++ {
			if v != hub {
				edges = append(edges, Edge{U: hub, V: v, W: w()})
			}
		}
		for i := rng.Intn(n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v && u != hub && v != hub {
				edges = append(edges, Edge{U: u, V: v, W: w()})
			}
		}
		return "star", Build(n, edges)
	case 3:
		n, edges := randomMultigraph(seed)
		return "multigraph", Build(n, edges)
	default: // a part graph: symmetric, zero diagonal, zero means no edge
		m := make([]float64, n*n)
		p := rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					x := w()
					m[u*n+v], m[v*n+u] = x, x
				}
			}
		}
		return "matrix", FromMatrix(n, m)
	}
}

// TestQuickCenterMatchesReference: Center, with its full-degree
// shortcut and BFS cut-off, picks the vertex refCenter picks, on every
// family centerCase draws and on the smallest graphs.
func TestQuickCenterMatchesReference(t *testing.T) {
	small := []*Graph{
		Build(1, nil),
		Build(2, nil),
		Build(2, []Edge{{U: 0, V: 1, W: 0}}),
		Build(2, []Edge{{U: 1, V: 0, W: math.NaN()}}),
		Build(3, []Edge{{U: 1, V: 2, W: 1}}), // an isolated vertex first
		Build(5, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}}),
		Build(5, []Edge{{4, 1, 1}, {4, 2, 1}, {4, 3, 1}, {4, 0, 1}}),
	}
	for i, g := range small {
		if got, want := g.Center(), refCenter(g); got != want {
			t.Fatalf("small graph %d: Center %d, reference %d", i, got, want)
		}
	}
	f := func(seed int64) bool {
		name, g := centerCase(seed)
		if got, want := g.Center(), refCenter(g); got != want {
			t.Logf("seed %d (%s, n=%d): Center %d, reference %d", seed, name, g.N(), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// randomMultigraph draws a seeded edge list on up to 14 vertices with
// parallel edges, in either orientation, non-integer and zero weights,
// and vertices that no edge touches.
func randomMultigraph(seed int64) (int, []Edge) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(14)
	// Only the first m vertices carry edges; the rest stay isolated.
	m := n - rng.Intn(3)
	if m < 2 {
		return n, nil
	}
	ws := []float64{0, 0.1, 0.2, 0.3, 0.7, 1.1, 2}
	var edges []Edge
	for i := rng.Intn(5 * m); i > 0; i-- {
		u, v := rng.Intn(m), rng.Intn(m)
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, W: ws[rng.Intn(len(ws))]})
		if rng.Intn(4) == 0 { // repeat the pair, reversed
			edges = append(edges, Edge{U: v, V: u, W: ws[rng.Intn(len(ws))]})
		}
	}
	return n, edges
}

// mismatch returns how g's answers differ from r's, or "" when every
// one is equal: arcs (weights bit for bit), degrees, traversals,
// shortest paths, the center and the edge count. Hop distances are also
// read through s, which callers reuse across graphs of different sizes
// so that the scratch both grows and shrinks.
func mismatch(g *Graph, r refGraph, s *HopScratch) string {
	n := g.N()
	if n != len(r) {
		return fmt.Sprintf("N %d, reference %d", n, len(r))
	}
	if n > 0 && g.Center() != r.center() {
		return fmt.Sprintf("Center %d, reference %d", g.Center(), r.center())
	}
	edges := 0
	for u := 0; u < n; u++ {
		edges += len(r[u])
		if as := g.Arcs(u); !slices.Equal(as, r.arcs(u)) || cap(as) != len(as) {
			return fmt.Sprintf("arcs of %d: %v (cap %d), reference %v", u, as, cap(as), r.arcs(u))
		}
		if g.WeightedDegree(u) != r.weightedDegree(u) {
			return fmt.Sprintf("weighted degree of %d differs", u)
		}
		order, dist, parent := r.bfs(u)
		gd, gp := g.HopTree(u)
		if !slices.Equal(g.BFSOrder(u), order) || !slices.Equal(g.HopDistances(u), dist) ||
			!slices.Equal(gd, dist) || !slices.Equal(gp, parent) ||
			!slices.Equal(s.HopDistances(g, u), dist) {
			return fmt.Sprintf("BFS from %d differs", u)
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.ShortestPath(u, v), r.shortestPath(u, v)) {
				return fmt.Sprintf("ShortestPath(%d, %d) differs", u, v)
			}
		}
	}
	if g.NumEdges() != edges/2 {
		return fmt.Sprintf("NumEdges %d, reference %d", g.NumEdges(), edges/2)
	}
	return ""
}

// TestQuickMatchesReference: Build on a random multigraph answers as
// the reference built from the same edge list.
func TestQuickMatchesReference(t *testing.T) {
	var s HopScratch
	f := func(seed int64) bool {
		n, edges := randomMultigraph(seed)
		if d := mismatch(Build(n, edges), newRef(n, edges), &s); d != "" {
			t.Logf("seed %d: %s", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWithoutMatchesReference: Without drops exactly the pairs its
// predicate names, as deleting them from the reference does, and leaves
// its receiver as it was.
func TestQuickWithoutMatchesReference(t *testing.T) {
	var s HopScratch
	f := func(seed int64) bool {
		n, edges := randomMultigraph(seed)
		g, r := Build(n, edges), newRef(n, edges)
		before := g.Edges()
		rng := rand.New(rand.NewSource(seed))
		dropped := map[[2]int]bool{}
		for _, e := range before {
			if rng.Intn(3) == 0 {
				dropped[[2]int{e.U, e.V}] = true
				delete(r[e.U], e.V)
				delete(r[e.V], e.U)
			}
		}
		w := g.Without(func(u, v int) bool {
			if u >= v {
				t.Errorf("seed %d: drop asked about (%d, %d)", seed, u, v)
			}
			return dropped[[2]int{u, v}]
		})
		if d := mismatch(w, r, &s); d != "" {
			t.Logf("seed %d: %s", seed, d)
			return false
		}
		if !slices.Equal(g.Edges(), before) {
			t.Logf("seed %d: Without changed its receiver", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
