package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudqc/internal/graph"
	"cloudqc/internal/qlib"
)

// sweepAlphas is place.DefaultConfig's imbalance sweep, which partition
// cannot import.
var sweepAlphas = []float64{0.05, 0.1, 0.2, 0.35, 0.5}

type sweepPoint struct {
	k     int
	alpha float64
}

// hierarchyGraphs are the graphs the hierarchy is checked on: qlib
// interaction graphs (bv_n70 is a star, whose hub the weight cap must
// keep from swallowing everything), connected random graphs, and an
// edgeless graph on which no pass ever makes progress.
func hierarchyGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{"edgeless_n30": graph.Build(30, nil)}
	for _, name := range []string{"knn_n67", "bv_n70", "qugan_n71", "ising_n66"} {
		c, err := qlib.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = c.InteractionGraph()
	}
	for _, seed := range []int64{1, 2, 3} {
		gs[fmt.Sprintf("random_n60_s%d", seed)] = graph.Random(60, 0.08, seed)
	}
	return gs
}

func samePartition(a, b *Result) bool {
	return a.K == b.K && slices.Equal(a.Parts, b.Parts) && slices.Equal(a.Sizes, b.Sizes) &&
		math.Float64bits(a.Cut) == math.Float64bits(b.Cut)
}

// TestHierarchyMatchesKWay: partitioning every point of Algorithm 1's
// sweep through one Hierarchy, in ascending, descending or shuffled
// order, gives exactly what a fresh KWay gives at each point.
func TestHierarchyMatchesKWay(t *testing.T) {
	const seed = 1
	for name, g := range hierarchyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var points []sweepPoint
			for _, alpha := range sweepAlphas {
				for k := 1; k <= min(g.N(), 24); k++ {
					points = append(points, sweepPoint{k, alpha})
				}
			}
			want := make([]*Result, len(points))
			for i, pt := range points {
				res, err := KWay(g, pt.k, pt.alpha, seed)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}

			ascending := make([]int, len(points))
			for i := range ascending {
				ascending[i] = i
			}
			descending := slices.Clone(ascending)
			slices.Reverse(descending)
			shuffled := slices.Clone(ascending)
			rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for order, idx := range map[string][]int{"ascending": ascending, "descending": descending, "shuffled": shuffled} {
				h := NewHierarchy(g, seed)
				for _, i := range idx {
					got, err := h.Partition(points[i].k, Capacity(g.N(), points[i].k, points[i].alpha))
					if err != nil {
						t.Fatal(err)
					}
					if !samePartition(got, want[i]) {
						t.Fatalf("%s order, k=%d α=%v: hierarchy gave cut %v sizes %v, KWay cut %v sizes %v",
							order, points[i].k, points[i].alpha, got.Cut, got.Sizes, want[i].Cut, want[i].Sizes)
					}
				}
			}
		})
	}
}

// TestPartitionDependsOnlyOnCapacity: two imbalance factors with the
// same Capacity at the same k give identical partitions, through KWay
// and through one shared Hierarchy, so a sweep may partition each
// (k, cap) point once.
func TestPartitionDependsOnlyOnCapacity(t *testing.T) {
	const seed = 1
	alphas := append([]float64{0, 0.01, 0.03, 0.07, 0.15, 0.25, 0.3, 0.4, 0.45, 0.6, 1, 3}, sweepAlphas...)
	shared := 0
	for name, g := range hierarchyGraphs(t) {
		n := g.N()
		h := NewHierarchy(g, seed)
		for k := 1; k <= min(n, 24); k++ {
			first := make(map[int]*Result) // cap -> the first factor's KWay result
			for _, alpha := range alphas {
				cap := Capacity(n, k, alpha)
				viaKWay, err := KWay(g, k, alpha, seed)
				if err != nil {
					t.Fatal(err)
				}
				viaHierarchy, err := h.Partition(k, cap)
				if err != nil {
					t.Fatal(err)
				}
				want, seen := first[cap]
				if !seen {
					first[cap] = viaKWay
					want = viaKWay
				} else {
					shared++
				}
				if !samePartition(viaKWay, want) || !samePartition(viaHierarchy, want) {
					t.Fatalf("%s k=%d α=%v cap=%d: KWay cut %v, Hierarchy cut %v, an earlier factor with this cap cut %v",
						name, k, alpha, cap, viaKWay.Cut, viaHierarchy.Cut, want.Cut)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two factors shared a cap; the test checked nothing")
	}
	t.Logf("%d (α, k) points repeated an earlier factor's cap", shared)
}

// samePass reports whether two coarsening passes produced the same
// child: the same vertex map, weights and weighted edges.
func samePass(a, b *pass) bool {
	if (a.child == nil) != (b.child == nil) {
		return false
	}
	if a.child == nil {
		return true
	}
	return slices.Equal(a.coarseMap, b.coarseMap) &&
		slices.Equal(a.child.weights, b.child.weights) &&
		slices.Equal(a.child.g.Edges(), b.child.g.Edges())
}

// TestPassIntervalExact: a coarsening pass recorded with interval
// [lo, hi) is what a fresh coarsen computes at both ends of it, and the
// interval is tight — the cap just outside either end decides one
// evaluated pair the other way.
func TestPassIntervalExact(t *testing.T) {
	const seed = 1
	finite := 0
	for name, g := range hierarchyGraphs(t) {
		for _, maxW := range []int{2, 3, 5, 8} {
			lvl := newLevel(g)
			for depth := 0; lvl.g.N() > 8; depth++ {
				p := lvl.passFor(seed, maxW)
				if p.lo > maxW || maxW >= p.hi {
					t.Fatalf("%s cap %d depth %d: interval [%d, %d) misses its own cap", name, maxW, depth, p.lo, p.hi)
				}
				// A level rebuilt from the same graph and weights has
				// nothing cached.
				fresh := func(cap int) *pass {
					return (&level{g: lvl.g, weights: lvl.weights}).coarsen(seed, cap)
				}
				if p.lo != math.MinInt {
					if !samePass(fresh(p.lo), p) {
						t.Fatalf("%s cap %d depth %d: pass differs at its lower end %d", name, maxW, depth, p.lo)
					}
					if below := fresh(p.lo - 1); below.hi > p.lo {
						t.Fatalf("%s cap %d depth %d: cap %d still accepts sum %d", name, maxW, depth, p.lo-1, p.lo)
					}
				}
				if p.hi != math.MaxInt {
					if !samePass(fresh(p.hi-1), p) {
						t.Fatalf("%s cap %d depth %d: pass differs at its upper end %d", name, maxW, depth, p.hi-1)
					}
					if above := fresh(p.hi); above.lo < p.hi {
						t.Fatalf("%s cap %d depth %d: cap %d still rejects sum %d", name, maxW, depth, p.hi, p.hi)
					}
				}
				if p.lo != math.MinInt && p.hi != math.MaxInt {
					finite++
				}
				if lvl.passFor(seed, maxW) != p {
					t.Fatalf("%s cap %d depth %d: pass not reused for its own cap", name, maxW, depth)
				}
				if p.child == nil {
					break
				}
				lvl = p.child
			}
		}
	}
	if finite == 0 {
		t.Fatal("no pass had a finite interval at both ends; the test checked nothing")
	}
}
