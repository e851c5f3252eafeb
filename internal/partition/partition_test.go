package partition

import (
	"math"
	"testing"
	"testing/quick"

	"cloudqc/internal/graph"
)

func validate(t *testing.T, g *graph.Graph, res *Result, k int) {
	t.Helper()
	if len(res.Parts) != g.N() {
		t.Fatalf("Parts length %d != %d vertices", len(res.Parts), g.N())
	}
	seen := make([]int, k)
	for v, p := range res.Parts {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d assigned to invalid part %d", v, p)
		}
		seen[p]++
	}
	for p, c := range seen {
		if c != res.Sizes[p] {
			t.Fatalf("Sizes[%d] = %d, recount %d", p, res.Sizes[p], c)
		}
	}
	if got := Cut(g, res.Parts); got != res.Cut {
		t.Fatalf("Cut = %v, recomputed %v", res.Cut, got)
	}
}

func TestKWayArgs(t *testing.T) {
	g := graph.Path(4)
	if _, err := KWay(g, 0, 0.1, 1); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := KWay(g, 5, 0.1, 1); err == nil {
		t.Fatal("k>n should error")
	}
	if _, err := KWay(g, 2, -0.1, 1); err == nil {
		t.Fatal("negative imbalance should error")
	}
	// NaN passes a plain < 0 check, and a non-finite cap converts to
	// an int silently; both must be rejected up front.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := KWay(g, 2, bad, 1); err == nil {
			t.Fatalf("KWay imbalance %v should error", bad)
		}
		if ValidImbalance(bad) {
			t.Fatalf("ValidImbalance(%v) = true", bad)
		}
	}
	// A cap below ⌈n/k⌉ cannot hold the graph.
	h := NewHierarchy(g, 1)
	if _, err := h.Partition(2, 1); err == nil {
		t.Fatal("Hierarchy.Partition cap 1 for 4 vertices in 2 parts should error")
	}
	if _, err := h.Partition(2, 2); err != nil {
		t.Fatalf("Hierarchy.Partition cap 2 for 4 vertices in 2 parts: %v", err)
	}
}

func TestKWaySinglePart(t *testing.T) {
	g := graph.Path(6)
	res, err := KWay(g, 1, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, res, 1)
	if res.Cut != 0 {
		t.Fatalf("k=1 cut = %v, want 0", res.Cut)
	}
}

func TestKWayEachVertexOwnPart(t *testing.T) {
	g := graph.Path(4)
	res, err := KWay(g, 4, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, res, 4)
	if res.Cut != 3 {
		t.Fatalf("k=n cut = %v, want all 3 edges", res.Cut)
	}
}

func TestPathGraphCutQuality(t *testing.T) {
	// A 40-vertex path split into 4 parts has an optimal cut of 3; the
	// multilevel heuristic should stay close.
	g := graph.Path(40)
	res, err := KWay(g, 4, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, res, 4)
	if res.Cut > 5 {
		t.Fatalf("path cut = %v, want <= 5 (optimal 3)", res.Cut)
	}
}

func TestChainWeightTwoCutQuality(t *testing.T) {
	// Ising-style chain with weight-2 edges: 34 vertices, 2 parts.
	// Optimal cut = 2 (one edge of weight 2).
	var edges []graph.Edge
	for i := 0; i+1 < 34; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 2})
	}
	g := graph.Build(34, edges)
	res, err := KWay(g, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut > 4 {
		t.Fatalf("weighted chain cut = %v, want <= 4 (optimal 2)", res.Cut)
	}
}

func TestTwoCliquesSplitCleanly(t *testing.T) {
	// Two 8-cliques joined by one bridge edge: the partitioner must find
	// the bridge (cut = 1).
	var edges []graph.Edge
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			edges = append(edges, graph.Edge{U: a, V: b, W: 1}, graph.Edge{U: 8 + a, V: 8 + b, W: 1})
		}
	}
	g := graph.Build(16, append(edges, graph.Edge{U: 0, V: 8, W: 1}))
	res, err := KWay(g, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 1 {
		t.Fatalf("two-clique cut = %v, want 1", res.Cut)
	}
	if res.Sizes[0] != 8 || res.Sizes[1] != 8 {
		t.Fatalf("two-clique sizes = %v, want [8 8]", res.Sizes)
	}
}

func TestBalanceRespected(t *testing.T) {
	g := graph.Random(60, 0.2, 3)
	res, err := KWay(g, 4, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cap := Capacity(60, 4, 0.1) // 17
	for p, s := range res.Sizes {
		if s > cap {
			t.Fatalf("part %d size %d exceeds cap %d", p, s, cap)
		}
		if s == 0 {
			t.Fatalf("part %d is empty", p)
		}
	}
}

func TestImbalanceLoosensCapacity(t *testing.T) {
	if Capacity(100, 4, 0) != 25 {
		t.Fatal("zero imbalance cap should be exact target")
	}
	if Capacity(100, 4, 0.2) != 30 {
		t.Fatalf("cap = %d, want 30", Capacity(100, 4, 0.2))
	}
}

// TestHugeImbalanceSaturates: a finite imbalance too large for the
// cap to fit an int saturates at 2n instead of wrapping to a cap of 1,
// so it partitions like any other imbalance that leaves parts unbounded.
func TestHugeImbalanceSaturates(t *testing.T) {
	g := graph.Grid(6, 6)
	if c := Capacity(36, 2, 1e300); c != 72 {
		t.Fatalf("Capacity(36, 2, 1e300) = %d, want 72", c)
	}
	want, err := KWay(g, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{1e17, 1e300} {
		got, err := KWay(g, 2, alpha, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !samePartition(got, want) {
			t.Fatalf("α=%v: cut %v sizes %v, α=10 gave cut %v sizes %v", alpha, got.Cut, got.Sizes, want.Cut, want.Sizes)
		}
	}
}

// FuzzCapacity: for 1 <= k <= n <= 512 and a finite imbalance >= 0,
// Capacity lies in [⌈n/k⌉, 2n] and never falls as the imbalance grows.
func FuzzCapacity(f *testing.F) {
	f.Add(uint16(67), uint16(4), 0.05, 0.1)
	f.Add(uint16(36), uint16(2), 10.0, 1e300)
	f.Add(uint16(512), uint16(512), 0.0, 1e17)
	f.Add(uint16(1), uint16(1), 0.5, 0.35)
	f.Fuzz(func(t *testing.T, n16, k16 uint16, a, b float64) {
		n := 1 + int(n16)%512
		k := 1 + int(k16)%n
		if !ValidImbalance(a) || !ValidImbalance(b) {
			t.Skip()
		}
		if a > b {
			a, b = b, a
		}
		ca, cb := Capacity(n, k, a), Capacity(n, k, b)
		if lo := (n + k - 1) / k; ca < lo {
			t.Fatalf("Capacity(%d, %d, %v) = %d < ⌈n/k⌉ = %d", n, k, a, ca, lo)
		}
		if cb > 2*n {
			t.Fatalf("Capacity(%d, %d, %v) = %d > 2n", n, k, b, cb)
		}
		if ca > cb {
			t.Fatalf("Capacity(%d, %d, ·) falls from %d at %v to %d at %v", n, k, ca, a, cb, b)
		}
	})
}

func TestDeterminism(t *testing.T) {
	g := graph.Random(50, 0.15, 9)
	a, err := KWay(g, 5, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KWay(g, 5, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatalf("non-deterministic partition at vertex %d", v)
		}
	}
}

func TestStarGraph(t *testing.T) {
	// Star with 20 leaves, 2 parts: optimal cut keeps the hub with as
	// many leaves as capacity allows; cut = leaves in the other part.
	var edges []graph.Edge
	for i := 1; i <= 20; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: 1})
	}
	g := graph.Build(21, edges)
	res, err := KWay(g, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, res, 2)
	cap := Capacity(21, 2, 0.1) // 12
	minCut := float64(20 - (cap - 1))
	if res.Cut < minCut {
		t.Fatalf("star cut %v below theoretical minimum %v", res.Cut, minCut)
	}
	if res.Cut > minCut+3 {
		t.Fatalf("star cut %v, want near optimal %v", res.Cut, minCut)
	}
}

func TestGridCut(t *testing.T) {
	// 8x8 grid into 4 parts: optimal quadrant cut is 16.
	g := graph.Grid(8, 8)
	res, err := KWay(g, 4, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, res, 4)
	if res.Cut > 26 {
		t.Fatalf("grid cut = %v, want <= 26 (optimal 16)", res.Cut)
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := graph.Build(10, nil)
	res, err := KWay(g, 3, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, res, 3)
	if res.Cut != 0 {
		t.Fatalf("edgeless cut = %v", res.Cut)
	}
}

// Property: every partition of a random graph is a valid total assignment
// with non-empty parts and cut consistent with the parts.
func TestQuickValidPartitions(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(30, 0.2, seed)
		res, err := KWay(g, 3, 0.2, seed)
		if err != nil {
			return false
		}
		if len(res.Parts) != 30 {
			return false
		}
		counts := make([]int, 3)
		for _, p := range res.Parts {
			if p < 0 || p >= 3 {
				return false
			}
			counts[p]++
		}
		for _, c := range counts {
			if c == 0 {
				return false
			}
		}
		return Cut(g, res.Parts) == res.Cut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: refinement never leaves an obviously improvable boundary
// vertex: no vertex has strictly greater connectivity to another part
// that also has room (this is the KL local-optimality condition).
func TestQuickLocalOptimality(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(24, 0.25, seed)
		res, err := KWay(g, 3, 0.3, seed)
		if err != nil {
			return false
		}
		cap := Capacity(24, 3, 0.3)
		for v := 0; v < g.N(); v++ {
			from := res.Parts[v]
			if res.Sizes[from] <= 1 {
				continue
			}
			conn := make([]float64, 3)
			for _, nb := range g.Arcs(v) {
				conn[res.Parts[nb.To]] += nb.W
			}
			for to := 0; to < 3; to++ {
				if to == from || res.Sizes[to]+1 > cap {
					continue
				}
				if conn[to] > conn[from] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
