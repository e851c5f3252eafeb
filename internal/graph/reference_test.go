package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refGraph is a naive map-of-maps graph with the textbook traversals,
// kept as the oracle for the sorted-adjacency Graph: every answer of
// Graph must equal refGraph's on the same edit sequence.
type refGraph []map[int]float64

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

func (r refGraph) kClosest(v, k int) []int {
	_, dist, _ := r.bfs(v)
	var cs []int
	for u := range r {
		if u != v && dist[u] >= 0 {
			cs = append(cs, u)
		}
	}
	sort.SliceStable(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if dist[a] != dist[b] {
			return dist[a] < dist[b]
		}
		if da, db := r.weightedDegree(a), r.weightedDegree(b); da != db {
			return da > db
		}
		return a < b
	})
	return cs[:min(k, len(cs))]
}

// randomEdits builds the same random graph in both representations:
// AddEdge merges onto existing edges, SetEdge overwrites, and
// SetEdge(…, 0) removals (some of absent edges).
func randomEdits(seed int64) (*Graph, refGraph) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(14)
	g, r := New(n), make(refGraph, n)
	for i := range r {
		r[i] = map[int]float64{}
	}
	if n < 2 {
		return g, r
	}
	for i, ops := 0, rng.Intn(4*n); i < ops; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		w := float64(1 + rng.Intn(3))
		switch rng.Intn(4) {
		case 0, 1:
			g.AddEdge(u, v, w)
			r[u][v] += w
			r[v][u] += w
		case 2:
			g.SetEdge(u, v, w)
			r[u][v], r[v][u] = w, w
		default:
			g.SetEdge(u, v, 0)
			delete(r[u], v)
			delete(r[v], u)
		}
	}
	return g, r
}

func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		g, r := randomEdits(seed)
		n := g.N()
		if g.Center() != r.center() {
			t.Logf("seed %d: Center %d, reference %d", seed, g.Center(), r.center())
			return false
		}
		edges := 0
		for u := 0; u < n; u++ {
			edges += len(r[u])
			if !slices.Equal(g.Neighbors(u), r.neighbors(u)) ||
				g.WeightedDegree(u) != r.weightedDegree(u) {
				t.Logf("seed %d: adjacency of %d differs", seed, u)
				return false
			}
			order, dist, parent := r.bfs(u)
			gd, gp := g.HopTree(u)
			if !slices.Equal(g.BFSOrder(u), order) || !slices.Equal(g.HopDistances(u), dist) ||
				!slices.Equal(gd, dist) || !slices.Equal(gp, parent) {
				t.Logf("seed %d: BFS from %d differs", seed, u)
				return false
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(g.ShortestPath(u, v), r.shortestPath(u, v)) {
					t.Logf("seed %d: ShortestPath(%d, %d) differs", seed, u, v)
					return false
				}
			}
			for _, k := range []int{1, 3, n} {
				if !slices.Equal(g.KClosest(u, k), r.kClosest(u, k)) {
					t.Logf("seed %d: KClosest(%d, %d) differs", seed, u, k)
					return false
				}
			}
		}
		return g.NumEdges() == edges/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNeighborsCopyAllowsMutation: Neighbors returns a copy, so a loop
// may detach a vertex while ranging over it (route's Yen spur loop does).
func TestNeighborsCopyAllowsMutation(t *testing.T) {
	g := Grid(3, 3)
	for _, nb := range g.Neighbors(4) {
		g.SetEdge(4, nb, 0)
	}
	if g.Degree(4) != 0 || g.NumEdges() != 8 {
		t.Fatalf("after detaching the hub: degree %d, %d edges; want 0, 8", g.Degree(4), g.NumEdges())
	}
}
