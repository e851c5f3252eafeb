package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cloudqc/internal/graph"
	"cloudqc/internal/qlib"
)

// refPartition is Hierarchy.Partition with the partitioner's original
// per-point steps: a full-scan bestBoundary in the initial partition,
// a refinement that rescans every vertex against every part, and
// projection into fresh slices. Coarsening and seed spreading are the
// Hierarchy's own, run on fresh levels.
func refPartition(g *graph.Graph, seed int64, k, cap int) *Result {
	n := g.N()
	if k == 1 {
		return finish(g, make([]int, n), 1)
	}
	if k == n {
		parts := make([]int, n)
		for i := range parts {
			parts[i] = i
		}
		return finish(g, parts, k)
	}
	maxVertexWeight := max(cap/2, 2)
	lvl := newLevel(g)
	var parents []*level
	var passes []*pass
	for lvl.g.N() > coarsestSize(k) {
		p := lvl.passFor(seed, maxVertexWeight)
		if p.child == nil {
			break
		}
		parents = append(parents, lvl)
		passes = append(passes, p)
		lvl = p.child
	}
	parts := lvl.refInitialPartition(k, cap)
	lvl.refRefine(parts, k, cap)
	for i := len(passes) - 1; i >= 0; i-- {
		parts = passes[i].project(parts, make([]int, parents[i].g.N()))
		parents[i].refRefine(parts, k, cap)
	}
	return finish(g, parts, k)
}

func (l *level) refInitialPartition(k, cap int) []int {
	n := l.g.N()
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	load := make([]int, k)
	seeds := l.spreadSeeds(k)
	for p, s := range seeds {
		parts[s] = p
		load[p] += l.weights[s]
	}
	assigned := len(seeds)
	for assigned < n {
		progress := false
		for p := 0; p < k; p++ {
			v := l.refBestBoundary(parts, p, load[p], cap)
			if v < 0 {
				continue
			}
			parts[v] = p
			load[p] += l.weights[v]
			assigned++
			progress = true
			if assigned == n {
				break
			}
		}
		if !progress {
			for v := 0; v < n; v++ {
				if parts[v] >= 0 {
					continue
				}
				best := 0
				for p := 1; p < k; p++ {
					if load[p] < load[best] {
						best = p
					}
				}
				parts[v] = best
				load[best] += l.weights[v]
				assigned++
			}
		}
	}
	return parts
}

func (l *level) refBestBoundary(parts []int, p, loadP, cap int) int {
	best, bestW := -1, -1.0
	for v := 0; v < l.g.N(); v++ {
		if parts[v] >= 0 || loadP+l.weights[v] > cap {
			continue
		}
		var w float64
		for _, nb := range l.g.Arcs(v) {
			if parts[nb.To] == p {
				w += nb.W
			}
		}
		if w > bestW {
			best, bestW = v, w
		}
	}
	if bestW <= 0 {
		return -1
	}
	return best
}

func (l *level) refRefine(parts []int, k, cap int) {
	n := l.g.N()
	load := make([]int, k)
	count := make([]int, k)
	for v := 0; v < n; v++ {
		load[parts[v]] += l.weights[v]
		count[parts[v]]++
	}
	conn := make([]float64, k)
	for {
		moved := false
		for v := 0; v < n; v++ {
			from := parts[v]
			if count[from] <= 1 {
				continue
			}
			clear(conn)
			boundary := false
			for _, nb := range l.g.Arcs(v) {
				conn[parts[nb.To]] += nb.W
				if parts[nb.To] != from {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			bestTo, bestGain := -1, 0.0
			for to := 0; to < k; to++ {
				if to == from || load[to]+l.weights[v] > cap {
					continue
				}
				gain := conn[to] - conn[from]
				if gain > bestGain ||
					(gain == bestGain && bestTo < 0 && gain == 0 && load[to]+l.weights[v] < load[from]) {
					bestTo, bestGain = to, gain
				}
			}
			if bestTo >= 0 && (bestGain > 0 || load[bestTo]+l.weights[v] < load[from]) {
				parts[v] = bestTo
				load[from] -= l.weights[v]
				load[bestTo] += l.weights[v]
				count[from]--
				count[bestTo]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// sweepCaps returns every (k, cap) point the default imbalance sweep
// reaches on n vertices for k = 2..20 (k ≤ n), each once.
func sweepCaps(n int) [][2]int {
	var pts [][2]int
	for _, alpha := range sweepAlphas {
		for k := 2; k <= min(n, 20); k++ {
			if pt := [2]int{k, Capacity(n, k, alpha)}; !slices.Contains(pts, pt) {
				pts = append(pts, pt)
			}
		}
	}
	return pts
}

// reweighted copies g with every edge weight drawn from a few
// non-integer values, so connection sums depend on their order
// (0.1+0.2 != 0.3 in floating point) and equal gains still occur.
func reweighted(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	ws := []float64{0.1, 0.2, 0.3, 0.7, 1.1}
	edges := g.Edges()
	for i := range edges {
		edges[i].W = ws[rng.Intn(len(ws))]
	}
	return graph.Build(g.N(), edges)
}

// TestPartitionMatchesReference: the frontier-driven initial partition
// and the touched-parts refinement, run through one Hierarchy with its
// scratch, give the same Parts, Sizes and Cut bits as the original
// full-scan steps at every point of the default sweep, on every qlib
// template's interaction graph and on random graphs with non-integer
// weights.
func TestPartitionMatchesReference(t *testing.T) {
	const seed = 1
	gs := make(map[string]*graph.Graph)
	for _, name := range qlib.Names() {
		gs[name] = qlib.MustBuild(name).InteractionGraph()
	}
	for i := int64(0); i < 8; i++ {
		n := 30 + int(i)*15
		gs[fmt.Sprintf("random_n%d_s%d", n, i)] = reweighted(graph.Random(n, 0.05+0.02*float64(i), i), i)
	}
	points := 0
	for name, g := range gs {
		h := NewHierarchy(g, seed)
		for _, pt := range sweepCaps(g.N()) {
			k, cap := pt[0], pt[1]
			got, err := h.Partition(k, cap)
			if err != nil {
				t.Fatal(err)
			}
			if want := refPartition(g, seed, k, cap); !samePartition(got, want) {
				t.Fatalf("%s k=%d cap=%d: cut %v sizes %v, reference cut %v sizes %v",
					name, k, cap, got.Cut, got.Sizes, want.Cut, want.Sizes)
			}
			points++
		}
	}
	t.Logf("%d points on %d graphs", points, len(gs))
}

// TestScratchNotShared: a Hierarchy's scratch never reaches a caller.
// Two Hierarchies of one graph, driven over the sweep in opposite
// orders, agree at every point, and every Parts a Hierarchy returned is
// unchanged after all its later Partition calls.
func TestScratchNotShared(t *testing.T) {
	const seed = 1
	for name, g := range hierarchyGraphs(t) {
		pts := sweepCaps(g.N())
		fwd, rev := NewHierarchy(g, seed), NewHierarchy(g, seed)
		a := make([]*Result, len(pts))
		b := make([]*Result, len(pts))
		kept := make([][]int, len(pts))
		for i := range pts {
			var err error
			if a[i], err = fwd.Partition(pts[i][0], pts[i][1]); err != nil {
				t.Fatal(err)
			}
			kept[i] = slices.Clone(a[i].Parts)
			j := len(pts) - 1 - i
			if b[j], err = rev.Partition(pts[j][0], pts[j][1]); err != nil {
				t.Fatal(err)
			}
		}
		for i, pt := range pts {
			if !samePartition(a[i], b[i]) {
				t.Fatalf("%s k=%d cap=%d: forward and reverse sweeps differ", name, pt[0], pt[1])
			}
			if !slices.Equal(a[i].Parts, kept[i]) {
				t.Fatalf("%s k=%d cap=%d: Parts changed after later calls", name, pt[0], pt[1])
			}
		}
	}
}
