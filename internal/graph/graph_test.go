package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
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

func TestAddEdgeAccumulates(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 3)
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

func TestSetEdgeOverwritesAndRemoves(t *testing.T) {
	g := New(3)
	g.SetEdge(0, 2, 4)
	if w := g.Weight(0, 2); w != 4 {
		t.Fatalf("Weight = %v, want 4", w)
	}
	g.SetEdge(0, 2, 7)
	if w := g.Weight(0, 2); w != 7 {
		t.Fatalf("Weight after overwrite = %v, want 7", w)
	}
	g.SetEdge(0, 2, 0)
	if g.HasEdge(0, 2) {
		t.Fatal("edge should be removed by SetEdge(..., 0)")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge self-loop should panic")
		}
	}()
	New(2).AddEdge(1, 1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vertex should panic")
		}
	}()
	New(2).AddEdge(0, 2, 1)
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	got := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1, 2)
	g.AddEdge(0, 2, 1)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("len(Edges) = %d, want 2", len(es))
	}
	if es[0] != (Edge{U: 0, V: 2, W: 1}) || es[1] != (Edge{U: 1, V: 3, W: 2}) {
		t.Fatalf("Edges = %v", es)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 5)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone missing original edge")
	}
}

// TestFromMatrixMatchesAddEdge: a graph built from a weight matrix has
// the same adjacency lists, arc for arc, as one built by AddEdge from
// the same pairs, and a later AddEdge on one vertex leaves its
// neighbour's list in the shared backing array intact.
func TestFromMatrixMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		want, w := New(n), make([]float64, n*n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			x := 0.1 * float64(1+rng.Intn(9))
			want.AddEdge(u, v, x)
			w[u*n+v] += x
			w[v*n+u] += x
		}
		got := FromMatrix(n, w)
		for u := 0; u < n; u++ {
			if !slices.Equal(got.Arcs(u), want.Arcs(u)) {
				t.Fatalf("trial %d vertex %d: arcs %v, AddEdge gave %v", trial, u, got.Arcs(u), want.Arcs(u))
			}
		}
		if n >= 3 {
			row1 := slices.Clone(got.Arcs(1))
			got.AddEdge(0, n-1, 1)
			if !slices.Equal(got.Arcs(1), row1) {
				t.Fatalf("trial %d: AddEdge(0, %d) changed vertex 1's arcs to %v from %v", trial, n-1, got.Arcs(1), row1)
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
	g := New(4)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(0, 2, 2.5)
	if d := g.WeightedDegree(0); d != 4 {
		t.Fatalf("WeightedDegree(0) = %v, want 4", d)
	}
	if d := g.Degree(0); d != 2 {
		t.Fatalf("Degree(0) = %d, want 2", d)
	}
}

func TestTotalWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
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
