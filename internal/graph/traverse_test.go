package graph

import (
	"testing"
	"testing/quick"
)

func TestBFSOrderPath(t *testing.T) {
	g := Path(4)
	got := g.BFSOrder(0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFSOrder = %v, want %v", got, want)
		}
	}
}

func TestBFSOrderFromMiddle(t *testing.T) {
	g := Path(5)
	got := g.BFSOrder(2)
	// Neighbors visited in ascending order: 1 before 3.
	want := []int{2, 1, 3, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFSOrder = %v, want %v", got, want)
		}
	}
}

func TestHopDistancesPath(t *testing.T) {
	g := Path(5)
	d := g.HopDistances(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	g := Build(3, []Edge{{0, 1, 1}})
	d := g.HopDistances(0)
	if d[2] != -1 {
		t.Fatalf("dist to isolated vertex = %d, want -1", d[2])
	}
}

func TestShortestPathRing(t *testing.T) {
	g := Ring(6)
	p := g.ShortestPath(0, 3)
	if len(p) != 4 {
		t.Fatalf("path length = %d (%v), want 4 vertices", len(p), p)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path uses non-edge %d-%d", p[i], p[i+1])
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := Path(3)
	p := g.ShortestPath(1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v, want [1]", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := Build(4, []Edge{{0, 1, 1}, {2, 3, 1}})
	if p := g.ShortestPath(0, 3); p != nil {
		t.Fatalf("path across components = %v, want nil", p)
	}
}

func TestConnected(t *testing.T) {
	if !Path(5).Connected() {
		t.Fatal("path should be connected")
	}
	g := Build(4, []Edge{{0, 1, 1}})
	if g.Connected() {
		t.Fatal("graph with isolated vertices should not be connected")
	}
	if !Build(0, nil).Connected() || !Build(1, nil).Connected() {
		t.Fatal("empty and singleton graphs are connected by definition")
	}
}

func TestComponents(t *testing.T) {
	g := Build(6, []Edge{{0, 1, 1}, {2, 3, 1}, {3, 4, 1}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

// Property: BFS hop distances obey the triangle inequality on connected
// random graphs: d(a,c) <= d(a,b) + d(b,c).
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		g := Random(12, 0.25, seed)
		d := make([][]int, g.N())
		for u := range d {
			d[u] = g.HopDistances(u)
		}
		for a := 0; a < g.N(); a++ {
			for b := 0; b < g.N(); b++ {
				for c := 0; c < g.N(); c++ {
					if d[a][c] > d[a][b]+d[b][c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS from any vertex of a Random graph reaches all vertices
// (Random repairs connectivity).
func TestQuickRandomConnected(t *testing.T) {
	f := func(seed int64) bool {
		g := Random(15, 0.1, seed)
		return g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
