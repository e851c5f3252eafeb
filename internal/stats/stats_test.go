package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("Mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 4 {
		t.Fatalf("P100 = %v", p)
	}
	if p := Median(xs); p != 2.5 {
		t.Fatalf("median = %v", p)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("Percentile(nil) should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float64{3, -1, 7}); got != 7 {
		t.Fatalf("Max = %v", got)
	}
	if !math.IsNaN(Max(nil)) {
		t.Fatal("empty Max should be NaN")
	}
}

func TestECDFSteps(t *testing.T) {
	pts := ECDF([]float64{1, 2, 2, 3})
	if len(pts) != 3 {
		t.Fatalf("ECDF = %v, want 3 distinct points", pts)
	}
	if pts[0] != (CDFPoint{X: 1, P: 0.25}) {
		t.Fatalf("pts[0] = %v", pts[0])
	}
	if pts[1] != (CDFPoint{X: 2, P: 0.75}) {
		t.Fatalf("pts[1] = %v (duplicates collapse to final fraction)", pts[1])
	}
	if pts[2] != (CDFPoint{X: 3, P: 1}) {
		t.Fatalf("pts[2] = %v", pts[2])
	}
	if ECDF(nil) != nil {
		t.Fatal("ECDF(nil) should be nil")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "v"}, [][]string{{"longest-row", "1"}, {"x", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header: %q", lines[0])
	}
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows not aligned:\n%s", out)
	}
}

func TestF(t *testing.T) {
	if F(3) != "3" {
		t.Fatalf("F(3) = %q", F(3))
	}
	if F(3.14) != "3.1" {
		t.Fatalf("F(3.14) = %q", F(3.14))
	}
}

// Property: ECDF is increasing in both X and P and ends at P=1 on the
// sample's maximum.
func TestQuickECDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		pts := ECDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P <= pts[i-1].P {
				return false
			}
		}
		return math.Abs(pts[len(pts)-1].P-1) < 1e-12 && pts[len(pts)-1].X == Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Min <= Percentile(p) <= Max for any p.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []uint8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p := float64(pRaw) / 255
		v := Percentile(xs, p)
		return v >= slices.Min(xs)-1e-12 && v <= Max(xs)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: Jain = %v, want 1", got)
	}
	// One entity takes everything: index = 1/n.
	if got := JainIndex([]float64{9, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("monopolized shares: Jain = %v, want 1/3", got)
	}
	// Mildly unequal: strictly between 1/n and 1.
	got := JainIndex([]float64{1, 2, 3})
	if got <= 1.0/3 || got >= 1 {
		t.Fatalf("Jain = %v, want in (1/3, 1)", got)
	}
	if !math.IsNaN(JainIndex(nil)) {
		t.Fatal("empty sample should be NaN")
	}
	if !math.IsNaN(JainIndex([]float64{0, 0})) {
		t.Fatal("all-zero sample should be NaN")
	}
}
