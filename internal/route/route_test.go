package route

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"cloudqc/internal/cloud"
	"cloudqc/internal/graph"
)

func TestKShortestOnRing(t *testing.T) {
	// A 6-ring has exactly two loopless paths between opposite nodes:
	// lengths 3 and 3.
	g := graph.Ring(6)
	paths := KShortest(g, 0, 3, 4)
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2", paths)
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Fatalf("ring path %v should have 4 nodes", p)
		}
		validatePath(t, g, p, 0, 3)
	}
	if samePath(paths[0], paths[1]) {
		t.Fatal("duplicate paths returned")
	}
}

func TestKShortestOrderedByLength(t *testing.T) {
	// Diamond with a long detour: 0-1-3 (short), 0-2-3 (short),
	// 0-4-5-3 (long).
	g := graph.Build(6, []graph.Edge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 3, W: 1},
		{U: 0, V: 2, W: 1},
		{U: 2, V: 3, W: 1},
		{U: 0, V: 4, W: 1},
		{U: 4, V: 5, W: 1},
		{U: 5, V: 3, W: 1},
	})
	paths := KShortest(g, 0, 3, 5)
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	if len(paths[0]) != 3 || len(paths[1]) != 3 || len(paths[2]) != 4 {
		t.Fatalf("path lengths wrong: %v", paths)
	}
}

func TestKShortestUnreachable(t *testing.T) {
	g := graph.Build(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if paths := KShortest(g, 0, 3, 2); paths != nil {
		t.Fatalf("unreachable should be nil, got %v", paths)
	}
}

func TestKShortestTrivial(t *testing.T) {
	g := graph.Path(3)
	paths := KShortest(g, 1, 1, 3)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("self path = %v", paths)
	}
	if KShortest(g, 0, 2, 0) != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestKShortestLoopless(t *testing.T) {
	g := graph.Random(12, 0.3, 7)
	for _, p := range KShortest(g, 0, 11, 6) {
		seen := map[int]bool{}
		for _, v := range p {
			if seen[v] {
				t.Fatalf("path %v revisits %d", p, v)
			}
			seen[v] = true
		}
	}
}

func TestTableLookup(t *testing.T) {
	g := graph.Ring(6)
	tab := NewTable(g, [][2]int{{0, 3}, {3, 0}, {1, 2}}, 3)
	if got := tab.Paths(0, 3); len(got) != 2 {
		t.Fatalf("Paths(0,3) = %v", got)
	}
	// Direction-insensitive.
	if got := tab.Paths(3, 0); len(got) != 2 {
		t.Fatalf("Paths(3,0) = %v", got)
	}
	if tab.Paths(0, 5) != nil {
		t.Fatal("unprecomputed pair should be nil")
	}
}

func TestSelectAvoidsCongestion(t *testing.T) {
	g := graph.Ring(6)
	tab := NewTable(g, [][2]int{{0, 3}}, 3)
	budget := []int{5, 0, 5, 5, 5, 5} // node 1 exhausted
	p := tab.Select(0, 3, budget)
	for _, v := range p {
		if v == 1 {
			t.Fatalf("selected congested path %v", p)
		}
	}
	// With ample budget everywhere, the (lexicographically first)
	// shortest path wins deterministically.
	even := []int{5, 5, 5, 5, 5, 5}
	p2 := tab.Select(0, 3, even)
	validatePath(t, g, p2, 0, 3)
}

func TestSelectNilForUnknownPair(t *testing.T) {
	g := graph.Ring(4)
	tab := NewTable(g, nil, 2)
	if tab.Select(0, 2, []int{1, 1, 1, 1}) != nil {
		t.Fatal("unknown pair should select nil")
	}
}

// Property: on random connected graphs, every returned path is a valid
// simple path with nondecreasing lengths, and the first equals the BFS
// shortest path length.
func TestQuickKShortestValid(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(10, 0.3, seed)
		paths := KShortest(g, 0, 9, 4)
		if len(paths) == 0 {
			return false // Random() repairs connectivity
		}
		want := len(g.ShortestPath(0, 9))
		if len(paths[0]) != want {
			return false
		}
		prev := 0
		for _, p := range paths {
			if p[0] != 0 || p[len(p)-1] != 9 {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					return false
				}
			}
			if len(p) < prev {
				return false
			}
			prev = len(p)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func validatePath(t *testing.T, g *graph.Graph, p []int, from, to int) {
	t.Helper()
	if p[0] != from || p[len(p)-1] != to {
		t.Fatalf("path %v endpoints wrong", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path %v uses non-edge %d-%d", p, p[i], p[i+1])
		}
	}
}

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// topologyAnswers is every read the controller and the router make of
// a cloud's topology for the pair (a, b).
type topologyAnswers struct {
	kShortest [][]int
	path      []int
	distance  int
	bfs       []int
}

func answersFor(cl *cloud.Cloud, a, b int) topologyAnswers {
	topo := cl.Topology()
	return topologyAnswers{
		kShortest: KShortest(topo, a, b, 3),
		path:      cl.Path(a, b),
		distance:  cl.Distance(a, b),
		bfs:       topo.ShortestPath(a, b),
	}
}

// TestConcurrentSharedTopology: goroutines running Yen's k-shortest
// paths and the cloud's path queries on one shared cloud topology get
// exactly the answers of a serial run. Graphs are immutable once built,
// so the reads need no lock; run under -race, this checks that none of
// them writes.
func TestConcurrentSharedTopology(t *testing.T) {
	cl := cloud.NewRandom(12, 0.3, 20, 5, 1)
	n := cl.NumQPUs()
	serial := make([]topologyAnswers, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			serial[a*n+b] = answersFor(cl, a, b)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the pairs from a different start.
			for i := 0; i < n*n; i++ {
				pair := (i + w*n*n/4) % (n * n)
				if got := answersFor(cl, pair/n, pair%n); !reflect.DeepEqual(got, serial[pair]) {
					t.Errorf("goroutine %d, pair (%d, %d): %+v, serial run %+v", w, pair/n, pair%n, got, serial[pair])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
