package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
)

// tenantJobs builds a two-tenant stream by hand: tenant ids, weights,
// deadlines, and staggered arrivals over a fixed circuit list.
func tenantJobs(t *testing.T, specs []struct {
	name     string
	tenant   int
	priority int
	arrival  float64
	deadline float64
}) []*Job {
	t.Helper()
	var jobs []*Job
	for i, s := range specs {
		c, err := qlib.Build(s.name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, &Job{
			ID: i, Circuit: c, Arrival: s.arrival,
			Tenant: s.tenant, Priority: s.priority, Deadline: s.deadline,
		})
	}
	return jobs
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"": BatchMode, "batch": BatchMode, "fifo": FIFOMode, "edf": EDFMode, "wfq": WFQMode,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("lifo"); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestUnknownModeRejected(t *testing.T) {
	if _, err := NewLiveController(Config{Cloud: testCloud(), Mode: Mode(99)}); err == nil {
		t.Fatal("out-of-range mode should error")
	}
}

// TestEDFEqualDeadlinesMatchesFIFO is the differential guarantee of the
// EDF admission order: when every job carries the same deadline, the
// (arrival, ID) tie-break makes EDF admit exactly like FIFO, so the two
// modes must produce bit-identical results on the same seeded stream.
func TestEDFEqualDeadlinesMatchesFIFO(t *testing.T) {
	mk := func() []*Job {
		js, err := buildJobs([]string{"knn_n67", "qft_n63", "ghz_n127", "ising_n66", "qugan_n71"})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range js {
			j.Arrival = float64(i) * 700
			j.Deadline = 5e6 // same for everyone
		}
		return js
	}
	for seed := int64(1); seed <= 2; seed++ {
		fifo := equivConfig(t, seed, FIFOMode, 20)
		want, err := fifo.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		edf := equivConfig(t, seed, EDFMode, 20)
		got, err := edf.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Failed != w.Failed || g.PlacedAt != w.PlacedAt ||
				g.Finished != w.Finished || g.JCT != w.JCT {
				t.Fatalf("seed %d job %d diverged:\nFIFO %+v\nEDF  %+v", seed, w.Job.ID, *w, *g)
			}
		}
	}
}

// TestWFQSingleTenantMatchesBatch is WFQ's differential guarantee: with
// one tenant the start-time fair queue degenerates to ascending
// intensity — the batch manager's order — so results must be
// bit-identical.
func TestWFQSingleTenantMatchesBatch(t *testing.T) {
	mk := func() []*Job {
		js, err := buildJobs([]string{"qugan_n111", "qft_n63", "knn_n67", "qugan_n39", "multiplier_n45"})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range js {
			j.Arrival = float64(i) * 500
		}
		return js
	}
	for seed := int64(1); seed <= 2; seed++ {
		batch := equivConfig(t, seed, BatchMode, 20)
		want, err := batch.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		wfq := equivConfig(t, seed, WFQMode, 20)
		got, err := wfq.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Failed != w.Failed || g.PlacedAt != w.PlacedAt ||
				g.Finished != w.Finished || g.JCT != w.JCT {
				t.Fatalf("seed %d job %d diverged:\nBatch %+v\nWFQ   %+v", seed, w.Job.ID, *w, *g)
			}
		}
	}
}

// TestNewModesMatchLockStep extends the lock-step equivalence to the
// tenant-aware admission modes: on batch workloads (all arrivals at 0 —
// the setting the equivalence guarantee covers; on timed streams Run
// admits arrivals on arrival instead of on the round grid) every new
// path must stay bit-identical to the frozen lock-step reference rows.
func TestNewModesMatchLockStep(t *testing.T) {
	mk := func() []*Job {
		return tenantJobs(t, []struct {
			name     string
			tenant   int
			priority int
			arrival  float64
			deadline float64
		}{
			{"ghz_n127", 1, 1, 0, 9e5},
			{"qft_n63", 2, 4, 0, 3e5},
			{"ghz_n127", 1, 1, 0, 8e5},
			{"knn_n67", 2, 4, 0, 2e5},
			{"qugan_n71", 1, 1, 0, 6e5},
		})
	}
	for _, mode := range []Mode{EDFMode, WFQMode} {
		for seed := int64(1); seed <= 2; seed++ {
			ev := equivConfig(t, seed, mode, 20)
			got, err := ev.Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			checkLockStep(t, fmt.Sprintf("%s/%d", mode, seed), ev, got)
		}
	}
}

// TestEDFAdmitsEarliestDeadlineFirst saturates a small cloud so only one
// wide job fits at a time: the later submission with the earlier
// deadline must be placed first.
func TestEDFAdmitsEarliestDeadlineFirst(t *testing.T) {
	jobs := tenantJobs(t, []struct {
		name     string
		tenant   int
		priority int
		arrival  float64
		deadline float64
	}{
		{"ghz_n127", 0, 0, 0, 9e5}, // loose deadline, submitted first
		{"ghz_n127", 0, 0, 0, 1e5}, // tight deadline, submitted second
	})
	ct := equivConfig(t, 1, EDFMode, 8) // 8x20 = 160 computing qubits: one 127-wide job at a time
	res, err := ct.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].PlacedAt >= res[0].PlacedAt {
		t.Fatalf("tight-deadline job placed at %v, loose at %v; EDF should invert submission order",
			res[1].PlacedAt, res[0].PlacedAt)
	}
}

// TestWFQOrderInterleavesTenantsByWeight drives the admission order
// directly: two tenants with identical job lists, one at twice the
// weight — the heavier tenant must win ties and drain earlier, and each
// tenant's own jobs must stay in ascending intensity order.
func TestWFQOrderInterleavesTenantsByWeight(t *testing.T) {
	var arrived []*Job
	id := 0
	for _, tenant := range []struct{ id, prio int }{{1, 1}, {2, 2}} {
		for _, n := range []int{50, 40, 30} { // deliberately unsorted within tenant
			arrived = append(arrived, &Job{
				ID: id, Circuit: qlib.GHZ(n), Tenant: tenant.id, Priority: tenant.prio,
			})
			id++
		}
	}
	ct := equivConfig(t, 1, WFQMode, 20)
	ct.wfq = NewWFQClock()
	ct.orderArrived(arrived)

	lastSeen := map[int]int{}
	prevIntensity := map[int]float64{}
	for pos, j := range arrived {
		lastSeen[j.Tenant] = pos
		in := Intensity(j.Circuit)
		if prev, ok := prevIntensity[j.Tenant]; ok && in < prev {
			t.Fatalf("tenant %d jobs out of intensity order at position %d", j.Tenant, pos)
		}
		prevIntensity[j.Tenant] = in
	}
	if arrived[0].Tenant != 2 {
		t.Fatalf("first slot went to tenant %d; weight 2 should win the opening tie", arrived[0].Tenant)
	}
	if lastSeen[2] >= lastSeen[1] {
		t.Fatalf("heavier tenant drained at position %d, lighter at %d; want heavier first",
			lastSeen[2], lastSeen[1])
	}
	// The order must interleave, not exhaust one tenant first.
	if lastSeen[2] == 2 {
		t.Fatal("tenant 2 ran entirely before tenant 1: not fair queueing, just priority")
	}
}

// TestRequestsCarryTenantTags runs two concurrently-placed tenants and
// asserts the allocation policy sees their tenant ids and weights on the
// round's requests.
func TestRequestsCarryTenantTags(t *testing.T) {
	rec := &tenantRecordingPolicy{}
	ct := controller(t, Config{Seed: 3, Policy: rec})
	jobs := tenantJobs(t, []struct {
		name     string
		tenant   int
		priority int
		arrival  float64
		deadline float64
	}{
		{"ghz_n127", 4, 2, 0, 0},
		{"ghz_n127", 9, 5, 0, 0},
	})
	if _, err := ct.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if !rec.seen[tenantTag{4, 2}] || !rec.seen[tenantTag{9, 5}] {
		t.Fatalf("policy saw tenant tags %v; want both {4 2} and {9 5}", rec.seen)
	}
}

type tenantTag struct{ tenant, weight int }

// tenantRecordingPolicy delegates to CloudQC but records the (tenant,
// weight) tags on every request it is handed.
type tenantRecordingPolicy struct {
	inner sched.CloudQCPolicy
	seen  map[tenantTag]bool
}

func (p *tenantRecordingPolicy) Name() string { return "recording" }

func (p *tenantRecordingPolicy) Allocate(reqs []sched.Request, budget []int, rng *rand.Rand) map[sched.NodeKey]int {
	if p.seen == nil {
		p.seen = make(map[tenantTag]bool)
	}
	for _, r := range reqs {
		p.seen[tenantTag{r.Tenant, r.TenantWeight}] = true
	}
	return p.inner.Allocate(reqs, budget, rng)
}

func TestOutcomesConversion(t *testing.T) {
	jobs := tenantJobs(t, []struct {
		name     string
		tenant   int
		priority int
		arrival  float64
		deadline float64
	}{
		{"ghz_n127", 1, 2, 0, 4e5},
		{"qft_n63", 2, 0, 100, 0},
	})
	ct := controller(t, Config{Seed: 1})
	res, err := ct.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	out := Outcomes(res)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].Tenant != 1 || out[0].Weight != 2 || out[0].Deadline != 4e5 {
		t.Fatalf("outcome 0 = %+v", out[0])
	}
	if out[0].JCT != res[0].JCT || out[0].Finished != res[0].Finished {
		t.Fatalf("outcome 0 times = %+v vs result %+v", out[0], res[0])
	}
	if out[1].Tenant != 2 || out[1].Deadline != 0 {
		t.Fatalf("outcome 1 = %+v", out[1])
	}
	// Failed jobs report no times.
	failed := Outcomes([]*JobResult{{Job: jobs[0], Failed: true}})
	if failed[0].JCT != 0 || failed[0].Finished != 0 || !failed[0].Failed {
		t.Fatalf("failed outcome = %+v", failed[0])
	}
}
