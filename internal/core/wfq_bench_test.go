package core

import (
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/qlib"
)

// BenchmarkWFQOrder isolates one WFQ admission-ordering round at a
// tenant count where the per-round bookkeeping, not the placer,
// dominates: 64 tenants × 4 queued jobs. The slot-indexed scratch
// (stable tenant→slot table, slice-backed clocks) makes a warm round
// allocation-free and map-free; the admission order itself is pinned
// bit-identical by the differential tests.
func BenchmarkWFQOrder(b *testing.B) {
	ct, err := NewLiveController(Config{
		Cloud: cloud.NewRandom(10, 0.3, 20, 5, 1),
		Mode:  WFQMode,
		Seed:  1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var jobs []*Job
	id := 0
	for tenant := 0; tenant < 64; tenant++ {
		for k := 0; k < 4; k++ {
			jobs = append(jobs, &Job{
				ID:       id,
				Circuit:  qlib.GHZ(8 + (id*7)%48), // varied widths → distinct intensities
				Tenant:   tenant,
				Priority: 1 + tenant%4,
				Arrival:  float64(k),
			})
			id++
		}
	}
	for _, j := range jobs {
		Intensity(j.Circuit) // fill the circuits' count memos before timing
	}
	arrived := make([]*Job, len(jobs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(arrived, jobs)
		ct.wfqOrder(arrived)
	}
}
