package epr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPurifyImproves(t *testing.T) {
	for _, f := range []float64{0.6, 0.8, 0.95} {
		if p := Purify(f); p <= f {
			t.Fatalf("Purify(%v) = %v, should improve", f, p)
		}
	}
	// Fixed points: 0.5 and 1.
	if p := Purify(0.5); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("Purify(0.5) = %v", p)
	}
	if p := Purify(1); p != 1 {
		t.Fatalf("Purify(1) = %v", p)
	}
}

func TestPurifyKnownValue(t *testing.T) {
	// F = 0.8: 0.64 / (0.64 + 0.04) = 16/17.
	want := 16.0 / 17.0
	if p := Purify(0.8); math.Abs(p-want) > 1e-12 {
		t.Fatalf("Purify(0.8) = %v, want %v", p, want)
	}
}

func TestPurifyRoundsZeroWhenAlreadyGood(t *testing.T) {
	f := DefaultFidelityModel()
	f.LinkFidelity = 0.99
	f.Threshold = 0.9
	r, err := f.PurifyRounds(1)
	if err != nil || r != 0 {
		t.Fatalf("rounds = %d, err = %v; want 0, nil", r, err)
	}
	pairs, err := f.PairsPerHop(1)
	if err != nil || pairs != 1 {
		t.Fatalf("pairs = %d, err = %v", pairs, err)
	}
}

func TestPurifyRoundsIncreaseWithHops(t *testing.T) {
	f := DefaultFidelityModel() // 0.97 link, 0.9 threshold
	r1, err := f.PurifyRounds(1)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := f.PurifyRounds(5)
	if err != nil {
		t.Fatal(err)
	}
	if r5 < r1 {
		t.Fatalf("rounds(5 hops) = %d < rounds(1 hop) = %d", r5, r1)
	}
	// 0.97^5 ≈ 0.859 < 0.9, so 5 hops must need at least one round.
	if r5 < 1 {
		t.Fatalf("5-hop purification rounds = %d, want >= 1", r5)
	}
}

func TestPurifyRoundsUnreachable(t *testing.T) {
	f := DefaultFidelityModel()
	f.LinkFidelity = 0.51 // barely above the 0.5 fixed point
	f.Threshold = 0.999
	if _, err := f.PurifyRounds(4); err == nil {
		t.Fatal("unreachable threshold should error")
	}
}

func TestFidelityValidate(t *testing.T) {
	ok := DefaultFidelityModel()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*FidelityModel)
	}{
		{"fidelity <= 0.5", func(f *FidelityModel) { f.LinkFidelity = 0.4 }},
		{"NaN fidelity", func(f *FidelityModel) { f.LinkFidelity = nan }},
		{"+Inf fidelity", func(f *FidelityModel) { f.LinkFidelity = inf }},
		{"-Inf fidelity", func(f *FidelityModel) { f.LinkFidelity = -inf }},
		{"zero threshold", func(f *FidelityModel) { f.Threshold = 0 }},
		{"NaN threshold", func(f *FidelityModel) { f.Threshold = nan }},
		{"+Inf threshold", func(f *FidelityModel) { f.Threshold = inf }},
		{"-Inf threshold", func(f *FidelityModel) { f.Threshold = -inf }},
		{"invalid base model", func(f *FidelityModel) { f.SuccessProb = 0 }},
	}
	for _, c := range cases {
		bad := DefaultFidelityModel()
		c.mut(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s: should be invalid", c.name)
		}
	}
}

// Property: PairsPerHop is a power of two and nondecreasing in hop
// count whenever the threshold is reachable.
func TestQuickPairsPerHopMonotone(t *testing.T) {
	f := func(raw uint8) bool {
		fm := DefaultFidelityModel()
		fm.LinkFidelity = 0.9 + float64(raw%10)/100 // 0.90 .. 0.99
		fm.Threshold = 0.85
		prev := 0
		for hops := 1; hops <= 4; hops++ {
			pairs, err := fm.PairsPerHop(hops)
			if err != nil {
				return true // unreachable is acceptable; monotonicity vacuous
			}
			if pairs&(pairs-1) != 0 {
				return false // not a power of two
			}
			if pairs < prev {
				return false
			}
			prev = pairs
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
