package community

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cloudqc/internal/cloud"
	"cloudqc/internal/graph"
)

// twoCliques builds two k-cliques joined by a single bridge.
func twoCliques(k int) *graph.Graph {
	var edges []graph.Edge
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			edges = append(edges, graph.Edge{U: a, V: b, W: 1}, graph.Edge{U: k + a, V: k + b, W: 1})
		}
	}
	return graph.Build(2*k, append(edges, graph.Edge{U: 0, V: k, W: 1}))
}

func TestModularityKnownValue(t *testing.T) {
	// Two disjoint edges, each its own community:
	// m = 2, each community: internal 2*1/4 = 0.5, (deg 2/4)^2 = 0.25.
	// Q = 2 * (0.5 - 0.25) = 0.5.
	g := graph.Build(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	q := Modularity(g, []int{0, 0, 1, 1})
	if math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("Q = %v, want 0.5", q)
	}
}

func TestModularityAllOneCommunity(t *testing.T) {
	// Everything in one community always has Q = 0.
	g := twoCliques(4)
	assign := make([]int, g.N())
	if q := Modularity(g, assign); math.Abs(q) > 1e-12 {
		t.Fatalf("Q(single community) = %v, want 0", q)
	}
}

func TestModularityEdgeless(t *testing.T) {
	g := graph.Build(5, nil)
	if q := Modularity(g, []int{0, 1, 2, 3, 4}); q != 0 {
		t.Fatalf("Q(edgeless) = %v, want 0", q)
	}
}

func TestDetectTwoCliques(t *testing.T) {
	g := twoCliques(6)
	c := Detect(g)
	if len(c.Groups) != 2 {
		t.Fatalf("detected %d communities, want 2: %v", len(c.Groups), c.Groups)
	}
	// Each clique must land in one community.
	for v := 1; v < 6; v++ {
		if c.Assign[v] != c.Assign[0] {
			t.Fatalf("clique 1 split: %v", c.Assign)
		}
		if c.Assign[6+v] != c.Assign[6] {
			t.Fatalf("clique 2 split: %v", c.Assign)
		}
	}
	if c.Assign[0] == c.Assign[6] {
		t.Fatal("cliques merged into one community")
	}
}

func TestDetectRespectsWeights(t *testing.T) {
	// A 4-cycle with two heavy opposite edges: communities follow the
	// heavy edges.
	g := graph.Build(4, []graph.Edge{{U: 0, V: 1, W: 10}, {U: 2, V: 3, W: 10}, {U: 1, V: 2, W: 1}, {U: 3, V: 0, W: 1}})
	c := Detect(g)
	if c.Assign[0] != c.Assign[1] || c.Assign[2] != c.Assign[3] || c.Assign[0] == c.Assign[2] {
		t.Fatalf("weighted communities wrong: %v", c.Assign)
	}
}

func TestDetectEdgeless(t *testing.T) {
	g := graph.Build(3, nil)
	c := Detect(g)
	if len(c.Groups) != 3 {
		t.Fatalf("edgeless graph should yield singleton communities, got %v", c.Groups)
	}
}

func TestDetectEmptyGraph(t *testing.T) {
	c := Detect(graph.Build(0, nil))
	if len(c.Groups) != 0 || len(c.Assign) != 0 {
		t.Fatalf("empty graph result: %+v", c)
	}
}

// randomWeighted builds a seeded graph on n vertices whose edges (each
// present with probability p) carry random weights, zero included; it
// may be disconnected.
func randomWeighted(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				w := 0.0
				if rng.Intn(10) > 0 {
					w = rng.Float64() * 40
				}
				edges = append(edges, graph.Edge{U: u, V: v, W: w})
			}
		}
	}
	return graph.Build(n, edges)
}

// TestDetectDeterminism: repeated detection on one graph gives the same
// division and the same Q bits, and Modularity's bits never vary
// between calls either.
func TestDetectDeterminism(t *testing.T) {
	graphs := []*graph.Graph{graph.Random(25, 0.2, 5)}
	for seed := int64(1); seed <= 50; seed++ {
		graphs = append(graphs, randomWeighted(20, 0.3, seed))
	}
	for i, g := range graphs {
		a := Detect(g)
		for rep := 0; rep < 5; rep++ {
			b := Detect(g)
			if !slices.Equal(a.Assign, b.Assign) {
				t.Fatalf("graph %d: non-deterministic detection", i)
			}
			if math.Float64bits(a.Q) != math.Float64bits(b.Q) {
				t.Fatalf("graph %d: Q bits %#x then %#x", i, math.Float64bits(a.Q), math.Float64bits(b.Q))
			}
			singletons := make([]int, g.N())
			for v := range singletons {
				singletons[v] = v
			}
			q1, q2 := Modularity(g, singletons), Modularity(g, singletons)
			if math.Float64bits(q1) != math.Float64bits(q2) {
				t.Fatalf("graph %d: Modularity bits %#x then %#x", i, math.Float64bits(q1), math.Float64bits(q2))
			}
		}
	}
}

// TestDetectMatchesMapReference: the slice-indexed Detect finds the
// divisions of the map-based CNM it replaced, on capacity graphs of
// random clouds under random reservations, on random weighted graphs
// (disconnected ones and zero-weight edges included) and on edgeless
// graphs.
func TestDetectMatchesMapReference(t *testing.T) {
	var graphs []*graph.Graph
	rng := rand.New(rand.NewSource(3))
	for seed := int64(1); seed <= 30; seed++ {
		cl := cloud.NewRandom(20, 0.3, 20, 5, seed)
		for q := 0; q < cl.NumQPUs(); q++ {
			if err := cl.Reserve(q, rng.Intn(21)); err != nil {
				t.Fatal(err)
			}
		}
		graphs = append(graphs, cl.CapacityGraph(), randomWeighted(4+int(seed)%17, 0.15, seed))
	}
	graphs = append(graphs, graph.Build(1, nil), graph.Build(7, nil), twoCliques(5))
	for i, g := range graphs {
		got, want := Detect(g), detectMapReference(g)
		if !slices.Equal(got.Assign, want.Assign) {
			t.Fatalf("graph %d: Assign %v, map reference %v", i, got.Assign, want.Assign)
		}
		if !slices.EqualFunc(got.Groups, want.Groups, slices.Equal[[]int]) {
			t.Fatalf("graph %d: Groups %v, map reference %v", i, got.Groups, want.Groups)
		}
	}
}

// detectMapReference is the map-of-maps CNM that Detect replaced: each
// community's neighbours in a map, visited in sorted key order.
func detectMapReference(g *graph.Graph) *Communities {
	n := g.N()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	m2 := 2 * g.TotalWeight()
	if n == 0 || m2 == 0 {
		return build(g, assign)
	}
	between := make([]map[int]float64, n)
	deg := make([]float64, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		between[v] = make(map[int]float64)
		deg[v] = g.WeightedDegree(v)
		alive[v] = true
	}
	for _, e := range g.Edges() {
		between[e.U][e.V] += e.W
		between[e.V][e.U] += e.W
	}
	cur := slices.Clone(assign)
	bestAssign := slices.Clone(cur)
	bestQ := Modularity(g, cur)
	curQ := bestQ
	for {
		mergeA, mergeB, bestDelta := -1, -1, 0.0
		first := true
		for a := 0; a < n; a++ {
			if !alive[a] {
				continue
			}
			keys := make([]int, 0, len(between[a]))
			for k := range between[a] {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, b := range keys {
				if b <= a || !alive[b] {
					continue
				}
				w := between[a][b]
				delta := 2 * (w/m2 - float64((deg[a]/m2)*(deg[b]/m2)))
				if first || delta > bestDelta {
					mergeA, mergeB, bestDelta = a, b, delta
					first = false
				}
			}
		}
		if mergeA < 0 {
			break
		}
		alive[mergeB] = false
		deg[mergeA] += deg[mergeB]
		for c, w := range between[mergeB] {
			if c == mergeA {
				continue
			}
			between[mergeA][c] += w
			between[c][mergeA] += w
			delete(between[c], mergeB)
		}
		delete(between[mergeA], mergeB)
		between[mergeB] = nil
		for v := 0; v < n; v++ {
			if cur[v] == mergeB {
				cur[v] = mergeA
			}
		}
		curQ += bestDelta
		if curQ > bestQ {
			bestQ = curQ
			copy(bestAssign, cur)
		}
	}
	return build(g, bestAssign)
}

func TestGroupsCanonical(t *testing.T) {
	g := twoCliques(3)
	c := Detect(g)
	if c.Groups[0][0] > c.Groups[1][0] {
		t.Fatalf("groups not ordered by smallest member: %v", c.Groups)
	}
	for _, grp := range c.Groups {
		for i := 1; i < len(grp); i++ {
			if grp[i-1] >= grp[i] {
				t.Fatalf("group not sorted: %v", grp)
			}
		}
	}
}

// Property: Detect's reported Q matches Modularity of its assignment and
// is never worse than the trivial single-community division (Q = 0) on
// connected graphs.
func TestQuickDetectConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(15, 0.25, seed)
		c := Detect(g)
		if math.Abs(c.Q-Modularity(g, c.Assign)) > 1e-9 {
			return false
		}
		return c.Q >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: community ids are dense and every group matches Assign.
func TestQuickCanonicalForm(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(12, 0.3, seed)
		c := Detect(g)
		for id, grp := range c.Groups {
			for _, v := range grp {
				if c.Assign[v] != id {
					return false
				}
			}
		}
		total := 0
		for _, grp := range c.Groups {
			total += len(grp)
		}
		return total == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
