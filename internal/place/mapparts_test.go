package place

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
	"cloudqc/internal/qlib"
)

// partGraph builds the part interaction graph of res from the
// circuit's interaction edges, summing them in edge order.
func partGraph(edges []graph.Edge, res *partition.Result) *graph.Graph {
	var pes []graph.Edge
	for _, e := range edges {
		if pu, pv := res.Parts[e.U], res.Parts[e.V]; pu != pv {
			pes = append(pes, graph.Edge{U: pu, V: pv, W: e.W})
		}
	}
	return graph.Build(res.K, pes)
}

// refMapParts is Algorithm 2 computed from scratch on every call, as
// mapParts did before candidates carried their order and anchors: build
// the part interaction graph, walk it breadth-first from its center,
// and anchor each part on its heaviest neighbor that already holds a
// QPU.
func refMapParts(t *capacityTier, edges []graph.Edge, res *partition.Result) ([]int, error) {
	k := res.K
	pg := partGraph(edges, res)

	set := t.setFor(k)
	candidates, all := t.sets[set], t.sets[len(t.sets)-1]
	free := slices.Clone(t.free)
	partQPU := make([]int, k)
	for i := range partQPU {
		partQPU[i] = -1
	}
	used := make([]bool, t.cl.NumQPUs())

	order := pg.BFSOrder(pg.Center())
	if len(order) < k {
		inOrder := make([]bool, k)
		for _, pt := range order {
			inOrder[pt] = true
		}
		for pt := 0; pt < k; pt++ {
			if !inOrder[pt] {
				order = append(order, pt)
			}
		}
	}

	for _, part := range order {
		anchor := refAnchorFor(pg, partQPU, part)
		if anchor < 0 {
			sub, verts := t.cl.Topology().Subgraph(candidates)
			anchor = verts[sub.Center()]
		}
		qpu := pickQPU(t.cl, candidates, used, free, res.Sizes[part], anchor)
		if qpu < 0 {
			qpu = pickQPU(t.cl, all, used, free, res.Sizes[part], anchor)
		}
		if qpu < 0 {
			return nil, errNoFit
		}
		partQPU[part] = qpu
		used[qpu] = true
		free[qpu] -= res.Sizes[part]
	}

	assign := make([]int, len(res.Parts))
	for qb, pt := range res.Parts {
		assign[qb] = partQPU[pt]
	}
	return assign, nil
}

// refAnchorFor returns the QPU of part's heaviest neighbor part that
// already holds one, or -1.
func refAnchorFor(pg *graph.Graph, partQPU []int, part int) int {
	bestQPU, bestW := -1, 0.0
	for _, a := range pg.Arcs(part) {
		if partQPU[a.To] >= 0 && a.W > bestW {
			bestQPU, bestW = partQPU[a.To], a.W
		}
	}
	return bestQPU
}

// randomPartition draws an n-vertex interaction edge list and a k-way
// assignment with no empty part. When islands is set, edges between the
// even and odd parts are dropped, so the part graph is disconnected.
func randomPartition(rng *rand.Rand, n, k int, islands bool) ([]graph.Edge, *partition.Result) {
	parts := make([]int, n)
	for v := range parts {
		if v < k {
			parts[v] = v
		} else {
			parts[v] = rng.Intn(k)
		}
	}
	rng.Shuffle(n, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	var edges []graph.Edge
	for i := rng.Intn(3 * n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || (islands && parts[u]%2 != parts[v]%2) {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: float64(1 + rng.Intn(3))})
	}
	g := graph.Build(n, edges)
	sizes := make([]int, k)
	for _, p := range parts {
		sizes[p]++
	}
	return g.Edges(), &partition.Result{Parts: parts, K: k, Sizes: sizes}
}

// TestMapPartsMatchesReference: mapping a candidate's memoized order
// and anchors gives the same assignment, or the same errNoFit verdict,
// as recomputing the part graph and anchors from scratch, over random
// free-capacity states and partitions — KWay's on qlib circuits and
// random ones, disconnected part graphs included.
func TestMapPartsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	templates := make([][]graph.Edge, len(memoTemplates))
	graphs := make([]*graph.Graph, len(memoTemplates))
	for i, name := range memoTemplates {
		graphs[i] = qlib.MustBuild(name).InteractionGraph()
		templates[i] = graphs[i].Edges()
	}
	cfgs := []Config{DefaultConfig(), DefaultConfig()}
	cfgs[1].UseBFS = true

	var fits, noFit, disconnected int
	for trial := 0; trial < 400; trial++ {
		cl := cloud.NewRandom(20, 0.3, 20, 5, int64(trial%7))
		for q := 0; q < cl.NumQPUs(); q++ {
			if err := cl.Reserve(q, rng.Intn(21)); err != nil {
				t.Fatal(err)
			}
		}
		var (
			edges []graph.Edge
			res   *partition.Result
		)
		if trial%2 == 0 {
			i := rng.Intn(len(graphs))
			k := 2 + rng.Intn(19)
			alpha := DefaultConfig().ImbalanceFactors[rng.Intn(5)]
			r, err := partition.KWay(graphs[i], k, alpha, 1)
			if err != nil {
				t.Fatal(err)
			}
			edges, res = templates[i], r
		} else {
			n := 20 + rng.Intn(60)
			edges, res = randomPartition(rng, n, 2+rng.Intn(19), trial%4 == 1)
		}

		tier := NewCloudQC(cfgs[trial/2%2]).newCapacityTier(cl, len(res.Parts))
		want, wantErr := refMapParts(tier, edges, res)
		got, gotErr := tier.mapParts(newCandidate(edges, res))
		if (wantErr != nil) != (gotErr != nil) || !slices.Equal(got, want) {
			t.Fatalf("trial %d (k=%d, free %v): memoized mapping (%v, %v), reference (%v, %v)",
				trial, res.K, tier.free, got, gotErr, want, wantErr)
		}
		if gotErr != nil && !errors.Is(gotErr, errNoFit) {
			t.Fatalf("trial %d: unexpected error %v", trial, gotErr)
		}

		if !partGraph(edges, res).Connected() {
			disconnected++
		}
		if gotErr == nil {
			fits++
		} else {
			noFit++
		}
	}
	t.Logf("%d mapped, %d errNoFit, %d disconnected part graphs", fits, noFit, disconnected)
	if fits == 0 || noFit == 0 || disconnected == 0 {
		t.Fatalf("degenerate trials: %d mapped, %d errNoFit, %d disconnected", fits, noFit, disconnected)
	}
}
