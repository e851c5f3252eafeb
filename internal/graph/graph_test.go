package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := Build(5, nil)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges() = %d, want 0", g.NumEdges())
	}
	if g.TotalWeight() != 0 {
		t.Fatalf("TotalWeight() = %v, want 0", g.TotalWeight())
	}
}

// TestBuildSumsParallelEdges: parallel edges, in either orientation,
// merge into one edge whose weight is their sum.
func TestBuildSumsParallelEdges(t *testing.T) {
	g := Build(3, []Edge{{0, 1, 2}, {1, 0, 3}})
	if w := g.Weight(0, 1); w != 5 {
		t.Fatalf("Weight(0,1) = %v, want 5", w)
	}
	if w := g.Weight(1, 0); w != 5 {
		t.Fatalf("Weight(1,0) = %v, want 5 (symmetry)", w)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges() = %d, want 1", g.NumEdges())
	}
}

// TestBuildKeepsZeroWeightEdges: a listed pair is an edge even when its
// weights sum to zero.
func TestBuildKeepsZeroWeightEdges(t *testing.T) {
	g := Build(3, []Edge{{0, 1, 0}, {1, 2, 1}, {2, 1, -1}})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.NumEdges() != 2 {
		t.Fatalf("edges %v, want {0,1} and {1,2} at weight 0", g.Edges())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with a self-loop should panic")
		}
	}()
	Build(2, []Edge{{0, 1, 1}, {1, 1, 1}})
}

func TestOutOfRangePanics(t *testing.T) {
	for _, e := range []Edge{{0, 2, 1}, {2, 0, 1}, {-1, 0, 1}, {0, -1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Build(2) with edge %v should panic", e)
				}
			}()
			Build(2, []Edge{e})
		}()
	}
}

func TestNegativeVertexCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with a negative vertex count should panic")
		}
	}()
	Build(-1, nil)
}

func TestNeighborsSorted(t *testing.T) {
	g := Build(5, []Edge{{2, 4, 1}, {2, 0, 1}, {2, 3, 1}})
	got := g.Arcs(2)
	want := []Arc{{0, 1}, {3, 1}, {4, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("Arcs = %v, want %v", got, want)
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := Build(4, []Edge{{3, 1, 2}, {0, 2, 1}})
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("len(Edges) = %d, want 2", len(es))
	}
	if es[0] != (Edge{U: 0, V: 2, W: 1}) || es[1] != (Edge{U: 1, V: 3, W: 2}) {
		t.Fatalf("Edges = %v", es)
	}
}

// TestWithoutLeavesReceiverUntouched: Without returns a filtered copy
// and the graph it was called on keeps every edge.
func TestWithoutLeavesReceiverUntouched(t *testing.T) {
	g := Ring(4)
	c := g.Without(func(u, v int) bool { return u == 0 })
	if c.HasEdge(0, 1) || c.HasEdge(0, 3) || c.NumEdges() != 2 {
		t.Fatalf("Without kept %v, want the edges {1,2} and {2,3}", c.Edges())
	}
	if !slices.Equal(g.Edges(), Ring(4).Edges()) {
		t.Fatalf("Without changed its receiver to %v", g.Edges())
	}
}

// TestFromMatrixMatchesBuild: a graph built from a weight matrix has
// the same adjacency lists, arc for arc and bit for bit, as one Build
// makes from the same pairs in the same order, each capped at its own
// length.
func TestFromMatrixMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		var edges []Edge
		w := make([]float64, n*n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			x := 0.1 * float64(1+rng.Intn(9))
			edges = append(edges, Edge{U: u, V: v, W: x})
			w[u*n+v] += x
			w[v*n+u] += x
		}
		got, want := FromMatrix(n, w), Build(n, edges)
		for u := 0; u < n; u++ {
			if as := got.Arcs(u); !slices.Equal(as, want.Arcs(u)) || cap(as) != len(as) {
				t.Fatalf("trial %d vertex %d: arcs %v (cap %d), Build gave %v", trial, u, as, cap(as), want.Arcs(u))
			}
		}
	}
}

func TestSubgraph(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	sub, verts := g.Subgraph([]int{1, 2, 4, 2})
	if sub.N() != 3 {
		t.Fatalf("sub.N() = %d, want 3 (duplicates ignored)", sub.N())
	}
	if len(verts) != 3 || verts[0] != 1 || verts[1] != 2 || verts[2] != 4 {
		t.Fatalf("verts = %v, want [1 2 4]", verts)
	}
	// Only the 1-2 edge survives; 4 is isolated in the induced subgraph.
	if sub.NumEdges() != 1 || !sub.HasEdge(0, 1) {
		t.Fatalf("induced edges wrong: %v", sub.Edges())
	}
}

func TestWeightedDegree(t *testing.T) {
	g := Build(4, []Edge{{0, 1, 1.5}, {0, 2, 2.5}})
	if d := g.WeightedDegree(0); d != 4 {
		t.Fatalf("WeightedDegree(0) = %v, want 4", d)
	}
}

func TestTotalWeight(t *testing.T) {
	g := Build(3, []Edge{{0, 1, 2}, {1, 2, 3}})
	if tw := g.TotalWeight(); tw != 5 {
		t.Fatalf("TotalWeight = %v, want 5", tw)
	}
}

// Property: for random graphs, Weight is always symmetric and NumEdges
// matches the length of Edges().
func TestQuickSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := Random(n, 0.3, seed)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && g.Weight(u, v) != g.Weight(v, u) {
					return false
				}
			}
		}
		return len(g.Edges()) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
