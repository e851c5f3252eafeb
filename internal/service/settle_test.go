package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/place"
)

// checkSettlement asserts the service's settlement bookkeeping against
// the federation after one request: the per-tenant in-flight gauges sum
// to submitted − settled, the settled counter is completed + failed,
// and /v1/stats counts exactly the settled entries of f.Results().
func checkSettlement(t *testing.T, srv *Server, f *fed.Federation, step string) {
	t.Helper()
	_, _, m := parseExposition(t, rawGET(t, srv, "/metrics"))
	one := func(name string) float64 {
		if len(m[name]) != 1 {
			t.Fatalf("%s: %s has samples %v, want one", step, name, m[name])
		}
		return m[name][0]
	}
	inflight := 0.0
	for _, v := range m["cloudqcd_tenant_inflight"] {
		inflight += v
	}
	submitted, settled := one("cloudqcd_jobs_submitted_total"), one("cloudqcd_jobs_settled_total")
	if inflight != submitted-settled {
		t.Fatalf("%s: in-flight gauges sum to %g, want submitted %g − settled %g", step, inflight, submitted, settled)
	}
	if done := one("cloudqcd_jobs_completed_total") + one("cloudqcd_jobs_failed_total"); settled != done {
		t.Fatalf("%s: settled counter %g, completed + failed %g", step, settled, done)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(rawGET(t, srv, "/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range f.Results() {
		if f.Status(r.Job.ID).Settled() {
			want++
		}
	}
	if st.Settled != want || float64(want) != settled {
		t.Fatalf("%s: /v1/stats settled %d, /metrics %g, federation holds %d settled results", step, st.Settled, settled, want)
	}
}

// TestSettlementInvariants drives a 3-shard WFQ stream with
// priority preemption (victims rehome through the router) and one
// shard drain, checking the settlement invariants after every request.
// Settlement comes from the transition hook, which fires on a
// preempted job's source shard before TakePreempted forgets it there.
func TestSettlementInvariants(t *testing.T) {
	pCfg := place.DefaultConfig()
	pCfg.Seed = 11
	clouds := make([]*cloud.Cloud, 3)
	for i := range clouds {
		clouds[i] = cloud.NewRandom(10, 0.3, 20, 5, int64(i+1))
	}
	f, err := fed.New(fed.Config{
		Shard: core.Config{
			Placer:  place.NewCloudQC(pCfg),
			Mode:    core.WFQMode,
			Seed:    11,
			Preempt: core.PreemptPriority,
		},
		Clouds: clouds,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	srv, err := New(Config{Federation: f, Now: clock.now, TimeScale: 1000})
	if err != nil {
		t.Fatal(err)
	}

	circuits := []string{"knn_n67", "qaoa_n64", "qugan_n39", "ising_n98"}
	for i := 0; i < 24; i++ {
		tenant := i % 4
		req := SubmitRequest{Tenant: tenant, Priority: 1, Circuit: circuits[(i/4+tenant)%len(circuits)]}
		if tenant == 3 {
			req.Priority = 8
		}
		submitRaw(t, srv, req, http.StatusAccepted)
		checkSettlement(t, srv, f, "submit "+itoa(i))
		if i == 12 {
			postFault(t, srv, `{"kind":"shard_drain","shard":2,"from":0}`, http.StatusAccepted)
			checkSettlement(t, srv, f, "drain injected")
		}
		clock.advance(time.Duration(5+7*(i%3)) * time.Millisecond)
		rawGET(t, srv, "/v1/cluster")
		checkSettlement(t, srv, f, "step "+itoa(i))
	}
	for i := 0; i < 50 && f.Snapshot().Completed+f.Snapshot().Failed < 24; i++ {
		clock.advance(50 * time.Millisecond)
		checkSettlement(t, srv, f, "settle "+itoa(i))
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	checkSettlement(t, srv, f, "drained")

	ps, fs := f.PreemptStats(), f.FaultStats()
	if ps.Preemptions == 0 || ps.Resumes == 0 {
		t.Fatalf("stream never preempted and resumed a job: %+v", ps)
	}
	if fs.ShardDrains != 1 || fs.RescuedDrain == 0 {
		t.Fatalf("drain never fired or moved nothing: %+v", fs)
	}
	// Every resume follows a preemption or a fault rescue (outage or
	// drain); rescued waiting jobs resubmit without resuming.
	if int64(ps.Resumes) > int64(ps.Preemptions)+fs.RescuedOutage+fs.RescuedDrain {
		t.Fatalf("resumes exceed preemptions + rescues: %+v, %+v", ps, fs)
	}
	t.Logf("preempt %+v, faults %+v, router %+v", ps, fs, f.RouterStats())
}
