package epr

import (
	"math"
	"testing"
	"testing/quick"

	"cloudqc/internal/circuit"
)

func TestDefaultLatencyTable1(t *testing.T) {
	l := DefaultLatency()
	if l.OneQubit != 0.1 || l.TwoQubit != 1 || l.Measure != 5 || l.EPRAttempt != 10 {
		t.Fatalf("DefaultLatency = %+v, want Table I values", l)
	}
}

func TestGateDuration(t *testing.T) {
	l := DefaultLatency()
	if l.GateDuration(circuit.Single) != 0.1 {
		t.Fatal("1q duration")
	}
	if l.GateDuration(circuit.Two) != 1 {
		t.Fatal("2q duration")
	}
	if l.GateDuration(circuit.Measure) != 5 {
		t.Fatal("measure duration")
	}
}

func TestGateDurationUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind should panic")
		}
	}()
	DefaultLatency().GateDuration(circuit.Kind(99))
}

func TestValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultModel()
	bad.SuccessProb = 0
	if bad.Validate() == nil {
		t.Fatal("p=0 should be invalid")
	}
	bad = DefaultModel()
	bad.SuccessProb = 1.5
	if bad.Validate() == nil {
		t.Fatal("p>1 should be invalid")
	}
	bad = DefaultModel()
	bad.EPRAttempt = 0
	if bad.Validate() == nil {
		t.Fatal("zero EPR latency should be invalid")
	}
	// NaN fails every comparison, so each check must be written to
	// reject it; latencies must also be finite and non-negative.
	nan, inf := math.NaN(), math.Inf(1)
	for name, edit := range map[string]func(*Model){
		"p=NaN":          func(m *Model) { m.SuccessProb = nan },
		"EPRAttempt=NaN": func(m *Model) { m.EPRAttempt = nan },
		"TwoQubit=NaN":   func(m *Model) { m.TwoQubit = nan },
		"OneQubit=NaN":   func(m *Model) { m.OneQubit = nan },
		"OneQubit=-1":    func(m *Model) { m.OneQubit = -1 },
		"Measure=-1":     func(m *Model) { m.Measure = -1 },
		"Measure=+Inf":   func(m *Model) { m.Measure = inf },
		"EPRAttempt=Inf": func(m *Model) { m.EPRAttempt = inf },
		"TwoQubit=-1":    func(m *Model) { m.TwoQubit = -1 },
	} {
		bad := DefaultModel()
		edit(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s should be invalid", name)
		}
	}
	ok := DefaultModel()
	ok.OneQubit, ok.Measure, ok.SuccessProb = 0, 0, 1
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero 1q/measure latency with p=1 should be valid: %v", err)
	}
}

func TestRoundSuccess(t *testing.T) {
	m := DefaultModel() // p = 0.3
	if got := m.RoundSuccess(1); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("RoundSuccess(1) = %v", got)
	}
	// 1 - 0.7^2 = 0.51
	if got := m.RoundSuccess(2); math.Abs(got-0.51) > 1e-12 {
		t.Fatalf("RoundSuccess(2) = %v", got)
	}
	if got := m.RoundSuccess(0); got != 0 {
		t.Fatalf("RoundSuccess(0) = %v, want 0", got)
	}
}

func TestRoundSuccessMonotonicInPairs(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for pairs := 1; pairs <= 10; pairs++ {
		p := m.RoundSuccess(pairs)
		if p <= prev {
			t.Fatalf("RoundSuccess not increasing at %d pairs", pairs)
		}
		prev = p
	}
}

func TestExpectedRounds(t *testing.T) {
	m := Model{Latency: DefaultLatency(), SuccessProb: 0.5}
	if got := m.ExpectedRounds(1); got != 2 {
		t.Fatalf("ExpectedRounds(1) = %v, want 2", got)
	}
	if !math.IsInf(m.ExpectedRounds(0), 1) {
		t.Fatal("ExpectedRounds(0) should be +Inf")
	}
}

func TestExpectedRemoteLatencySingleHop(t *testing.T) {
	m := Model{Latency: DefaultLatency(), SuccessProb: 0.5}
	// EPR: 10 * 2 = 20; no swaps; + gate 1 + measure 5 = 26.
	if got := m.ExpectedRemoteLatency(1); math.Abs(got-26) > 1e-12 {
		t.Fatalf("ExpectedRemoteLatency(1) = %v, want 26", got)
	}
}

func TestExpectedRemoteLatencyMultiHop(t *testing.T) {
	m := Model{Latency: DefaultLatency(), SuccessProb: 0.5}
	// 2 hops: 2*20 EPR + 1 swap (5) + 1 + 5 = 51.
	if got := m.ExpectedRemoteLatency(2); math.Abs(got-51) > 1e-12 {
		t.Fatalf("ExpectedRemoteLatency(2) = %v, want 51", got)
	}
	// hops < 1 clamps to 1.
	if m.ExpectedRemoteLatency(0) != m.ExpectedRemoteLatency(1) {
		t.Fatal("hops=0 should clamp to 1")
	}
}

// Property: remote latency grows monotonically with hop count.
func TestQuickRemoteLatencyMonotone(t *testing.T) {
	f := func(seedByte uint8) bool {
		p := 0.05 + float64(seedByte%90)/100 // 0.05 .. 0.94
		m := Model{Latency: DefaultLatency(), SuccessProb: p}
		prev := 0.0
		for h := 1; h <= 6; h++ {
			l := m.ExpectedRemoteLatency(h)
			if l <= prev {
				return false
			}
			prev = l
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
