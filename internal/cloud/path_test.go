package cloud

import (
	"reflect"
	"testing"

	"cloudqc/internal/graph"
)

// TestPathMatchesBFS: the next-hop-table walk must reproduce the
// per-call BFS it replaced exactly — same shortest paths, same
// lower-index tie-breaks — across every QPU pair of several random
// topologies. BuildRemoteDAG's output (and with it every cached remote
// DAG) depends on these paths byte for byte.
func TestPathMatchesBFS(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := NewRandom(20, 0.3, 20, 5, seed)
		g := c.Topology()
		for i := 0; i < c.NumQPUs(); i++ {
			for j := 0; j < c.NumQPUs(); j++ {
				want := g.ShortestPath(i, j)
				got := c.Path(i, j)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d Path(%d,%d) = %v, BFS says %v", seed, i, j, got, want)
				}
				if want != nil && c.Distance(i, j) != len(want)-1 {
					t.Fatalf("seed %d Distance(%d,%d) = %d, path length %d",
						seed, i, j, c.Distance(i, j), len(want)-1)
				}
			}
		}
	}
}

// TestPathDisconnected: unreachable pairs return nil, like the BFS did.
func TestPathDisconnected(t *testing.T) {
	g := graph.Build(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	c := New(g, 5, 2)
	if p := c.Path(0, 2); p != nil {
		t.Fatalf("Path across components = %v, want nil", p)
	}
	if p := c.Path(3, 3); len(p) != 1 || p[0] != 3 {
		t.Fatalf("self path = %v, want [3]", p)
	}
}

// TestSignature: the shape signature is stable for identical clouds and
// distinguishes topology and capacity changes; reservations (mutable
// state) must not affect it.
func TestSignature(t *testing.T) {
	a := NewRandom(10, 0.3, 20, 5, 1)
	b := NewRandom(10, 0.3, 20, 5, 1)
	if a.Signature() != b.Signature() {
		t.Fatal("identical clouds have different signatures")
	}
	if c := NewRandom(10, 0.3, 21, 5, 1); c.Signature() == a.Signature() {
		t.Fatal("computing-capacity change kept the signature")
	}
	if c := NewRandom(10, 0.3, 20, 6, 1); c.Signature() == a.Signature() {
		t.Fatal("comm-capacity change kept the signature")
	}
	if c := NewRandom(10, 0.3, 20, 5, 2); c.Signature() == a.Signature() {
		t.Fatal("different topology kept the signature")
	}
	sig := a.Signature()
	if err := a.Reserve(0, 3); err != nil {
		t.Fatal(err)
	}
	if a.Signature() != sig {
		t.Fatal("reservation changed the shape signature")
	}
	a.Release(0, 3)
}
