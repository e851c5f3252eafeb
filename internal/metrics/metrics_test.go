package metrics

import (
	"math"
	"testing"
)

func TestRecordKeepsAll(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 5; i++ {
		r.Record(Sample{Time: float64(i), Utilization: 0.1 * float64(i)})
	}
	if len(r.Samples()) != 5 {
		t.Fatalf("samples = %d", len(r.Samples()))
	}
}

func TestRecordThinning(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 100; i++ {
		r.Record(Sample{Time: float64(i)})
	}
	// Samples at 0, 10, 20, ..., 90.
	if got := len(r.Samples()); got != 10 {
		t.Fatalf("thinned samples = %d, want 10", got)
	}
}

func TestPeakUtilization(t *testing.T) {
	r := NewRecorder(0)
	for _, u := range []float64{0.2, 0.9, 0.4} {
		r.Record(Sample{Utilization: u})
	}
	if p := r.PeakUtilization(); p != 0.9 {
		t.Fatalf("peak = %v", p)
	}
	if NewRecorder(0).PeakUtilization() != 0 {
		t.Fatal("empty peak should be 0")
	}
}

func TestMeanUtilizationTimeWeighted(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Sample{Time: 0, Utilization: 1})
	r.Record(Sample{Time: 10, Utilization: 0}) // 1.0 held for 10 units
	r.Record(Sample{Time: 30, Utilization: 0}) // 0.0 held for 20 units
	want := (1.0*10 + 0.0*20) / 30
	if m := r.MeanUtilization(); math.Abs(m-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", m, want)
	}
}

func TestMeanUtilizationDegenerate(t *testing.T) {
	r := NewRecorder(0)
	if r.MeanUtilization() != 0 {
		t.Fatal("empty mean should be 0")
	}
	// A series that never spans time never changed state: its value is
	// the mean. The old left-Riemann sum dropped the final (here, only)
	// sample and reported 0.
	r.Record(Sample{Time: 5, Utilization: 1})
	if r.MeanUtilization() != 1 {
		t.Fatalf("single-sample mean = %v, want the sample's utilization", r.MeanUtilization())
	}
	r.Record(Sample{Time: 5, Utilization: 0.5}) // zero span
	if r.MeanUtilization() != 0.5 {
		t.Fatalf("zero-span mean = %v, want last utilization", r.MeanUtilization())
	}
}

func TestMeanUtilizationUntilExtendsFinalHold(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Sample{Time: 0, Utilization: 0})
	r.Record(Sample{Time: 10, Utilization: 1})
	// Plain mean covers [0, 10]: the final sample's value contributes
	// nothing yet.
	if m := r.MeanUtilization(); m != 0 {
		t.Fatalf("mean = %v, want 0 over [0,10]", m)
	}
	// Extending to 30 holds utilization 1 for 20 more units.
	want := (0.0*10 + 1.0*20) / 30
	if m := r.MeanUtilizationUntil(30); math.Abs(m-want) > 1e-12 {
		t.Fatalf("mean until 30 = %v, want %v", m, want)
	}
	// Ends before the last sample clamp to the recorded horizon.
	if m := r.MeanUtilizationUntil(3); m != 0 {
		t.Fatalf("clamped mean = %v, want 0", m)
	}
}

func TestFlushBypassesThinning(t *testing.T) {
	r := NewRecorder(100)
	r.Record(Sample{Time: 0, Utilization: 1})
	r.Record(Sample{Time: 90, Utilization: 0.5}) // thinned away
	if len(r.Samples()) != 1 {
		t.Fatalf("samples = %d, want 1 before flush", len(r.Samples()))
	}
	r.Flush(Sample{Time: 90, Utilization: 0.5})
	if len(r.Samples()) != 2 {
		t.Fatalf("samples = %d, want closing sample kept", len(r.Samples()))
	}
	// The closing sample makes the first sample's 90-unit hold count.
	want := (1.0 * 90) / 90
	if m := r.MeanUtilization(); math.Abs(m-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", m, want)
	}
}

func TestFlushReplacesSameInstant(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Sample{Time: 5, Utilization: 0.7, Active: 2})
	r.Flush(Sample{Time: 5, Utilization: 0})
	if len(r.Samples()) != 1 {
		t.Fatalf("samples = %d, want same-instant flush to replace", len(r.Samples()))
	}
	if r.Samples()[0].Utilization != 0 {
		t.Fatal("flush should overwrite the same-instant sample")
	}
}

func TestAggregateOnline(t *testing.T) {
	jcts := []float64{100, 200, 300, 400}
	waits := []float64{0, 10, 20, 30}
	s := AggregateOnline(jcts, waits, 2, 2000)
	if s.Completed != 4 || s.Failed != 2 {
		t.Fatalf("counts = %+v", s)
	}
	if s.MeanJCT != 250 || s.P50JCT != 250 {
		t.Fatalf("JCT stats = %+v", s)
	}
	if s.P99JCT <= s.P50JCT || s.P99JCT > 400 {
		t.Fatalf("P99 = %v out of range", s.P99JCT)
	}
	if s.MeanWait != 15 {
		t.Fatalf("MeanWait = %v", s.MeanWait)
	}
	// 4 jobs over 2000 CX = 2 jobs per kCX.
	if s.Throughput != 2 {
		t.Fatalf("Throughput = %v", s.Throughput)
	}
	empty := AggregateOnline(nil, nil, 0, 0)
	if empty.Completed != 0 || empty.Throughput != 0 || empty.MeanJCT != 0 {
		t.Fatalf("empty aggregate = %+v", empty)
	}
}
