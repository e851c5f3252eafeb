package graph

import (
	"testing"
	"testing/quick"
)

func TestCenterPath(t *testing.T) {
	// The center of a 5-path is vertex 2.
	if c := Path(5).Center(); c != 2 {
		t.Fatalf("Center(path5) = %d, want 2", c)
	}
}

func TestCenterStar(t *testing.T) {
	g := Build(5, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}})
	if c := g.Center(); c != 0 {
		t.Fatalf("Center(star) = %d, want hub 0", c)
	}
}

func TestCenterTieBreakByDegreeWeight(t *testing.T) {
	// 4-cycle: all vertices have eccentricity 2. Boost vertex 3's weighted
	// degree; it should win the tie.
	g := Build(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 10}})
	if c := g.Center(); c != 3 && c != 0 {
		t.Fatalf("Center = %d, want 0 or 3 (highest weighted degree)", c)
	}
}

func TestCenterSingleton(t *testing.T) {
	if c := Build(1, nil).Center(); c != 0 {
		t.Fatalf("Center(singleton) = %d, want 0", c)
	}
}

func TestCenterEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Center of empty graph should panic")
		}
	}()
	Build(0, nil).Center()
}

// Property: the center's eccentricity is minimal among all vertices.
func TestQuickCenterEccentricityMinimal(t *testing.T) {
	ecc := func(g *Graph, v int) int {
		m := 0
		for _, d := range g.HopDistances(v) {
			if d > m {
				m = d
			}
		}
		return m
	}
	f := func(seed int64) bool {
		g := Random(10, 0.3, seed)
		c := g.Center()
		ce := ecc(g, c)
		for v := 0; v < g.N(); v++ {
			if ecc(g, v) < ce {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
