package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/trace"
	"cloudqc/internal/wal"
)

// newTracedWALServer is newWALServer with the span recorder attached:
// the server discovers it through the federation, no service-level
// configuration involved.
func newTracedWALServer(t *testing.T, path string) (*Server, *fakeClock, *trace.Recorder, *wal.Log) {
	t.Helper()
	trc := trace.New()
	ccfg := testControllerConfig(7, core.WFQMode)
	ccfg.Recorder = metrics.NewRecorder(5)
	ccfg.Trace = trc
	f := oneShard(t, ccfg)
	var wlog *wal.Log
	if path != "" {
		var err error
		if wlog, _, err = wal.Open(path); err != nil {
			t.Fatal(err)
		}
	}
	clock := newFakeClock()
	srv, err := New(Config{Federation: f, Now: clock.now, TimeScale: 1000, WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	return srv, clock, trc, wlog
}

// getTrace fetches one job's trace, asserting the status code; the
// decoded response and the raw body are both returned (the raw body is
// what the WAL differential compares byte-for-byte).
func getTrace(t *testing.T, srv *Server, id int, wantCode int) (TraceResponse, string) {
	t.Helper()
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/jobs/"+itoa(id)+"/trace", nil))
	if rw.Code != wantCode {
		t.Fatalf("GET /v1/jobs/%d/trace: %d (want %d)\n%s", id, rw.Code, wantCode, rw.Body.String())
	}
	var tr TraceResponse
	if wantCode == http.StatusOK {
		if err := json.Unmarshal(rw.Body.Bytes(), &tr); err != nil {
			t.Fatal(err)
		}
	}
	return tr, rw.Body.String()
}

// TestTraceEndpointDisabled: without -trace the endpoint 404s (tracing
// off is the zero-cost default, not an empty trace), and a malformed id
// is a 400 regardless.
func TestTraceEndpointDisabled(t *testing.T) {
	srv, _, _, _, _ := newWALServer(t, "")
	getTrace(t, srv, 0, http.StatusNotFound)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/jobs/bogus/trace", nil))
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("non-integer id: %d, want 400", rw.Code)
	}
}

// TestTraceEndpoint drives the standard 12-job stream on a traced
// server and checks every job's span tree: settled, attribution summing
// to the JCT bitwise, the admission decision present with the WFQ
// virtual-start tag, and at least one compile span. Unknown ids 404.
func TestTraceEndpoint(t *testing.T) {
	srv, clock, _, _ := newTracedWALServer(t, "")
	driveWALStream(t, srv, clock)
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 12; id++ {
		tr, _ := getTrace(t, srv, id, http.StatusOK)
		if tr.ID != id || !tr.Done || tr.Failed {
			t.Fatalf("job %d trace %+v", id, tr)
		}
		a := tr.Attribution
		if sum := a.Queue + a.Compile + a.Local + a.Network + a.Suspended; sum != a.JCT {
			t.Fatalf("job %d phases sum to %v, JCT %v (%+v)", id, sum, a.JCT, a)
		}
		if tr.Admit == nil || tr.Admit.Mode != "wfq" || !tr.Admit.WFQ {
			t.Fatalf("job %d admit span %+v", id, tr.Admit)
		}
		if len(tr.Compiles) == 0 {
			t.Fatalf("job %d has no compile span", id)
		}
		if tr.RoundsTotal < len(tr.Rounds) || tr.RoundsDropped != tr.RoundsTotal-len(tr.Rounds) {
			t.Fatalf("job %d ring accounting: total %d, dropped %d, retained %d",
				id, tr.RoundsTotal, tr.RoundsDropped, len(tr.Rounds))
		}
	}
	getTrace(t, srv, 99, http.StatusNotFound)
}

// TestStatsAttributionMatchesTraces is the aggregation differential:
// each tenant's attribution in /v1/stats (and the /metrics families)
// equals the sum over that tenant's per-job traces exactly — no
// sampling, no drift.
func TestStatsAttributionMatchesTraces(t *testing.T) {
	srv, clock, _, _ := newTracedWALServer(t, "")
	driveWALStream(t, srv, clock)
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	sums := map[int]*trace.TenantAttribution{}
	for id := 0; id < 12; id++ {
		tr, _ := getTrace(t, srv, id, http.StatusOK)
		ta := sums[tr.Tenant]
		if ta == nil {
			ta = &trace.TenantAttribution{Tenant: tr.Tenant}
			sums[tr.Tenant] = ta
		}
		if tr.Failed {
			ta.Failed++
		} else {
			ta.Completed++
		}
		ta.JCT += tr.Attribution.JCT
		ta.Queue += tr.Attribution.Queue
		ta.Compile += tr.Attribution.Compile
		ta.Local += tr.Attribution.Local
		ta.Network += tr.Attribution.Network
		ta.Suspended += tr.Attribution.Suspended
	}

	var stats StatsResponse
	if err := json.Unmarshal([]byte(rawGET(t, srv, "/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Attribution) != len(sums) {
		t.Fatalf("stats carries %d tenant attributions, traces span %d tenants",
			len(stats.Attribution), len(sums))
	}
	for _, got := range stats.Attribution {
		want := sums[got.Tenant]
		if want == nil || got != *want {
			t.Fatalf("tenant %d attribution %+v, trace sums %+v", got.Tenant, got, want)
		}
	}

	// The /metrics families agree with the same sums.
	_, _, samples := parseExposition(t, rawGET(t, srv, "/metrics"))
	if got := samples["cloudqcd_trace_jobs_total"]; len(got) != 1 || got[0] != 12 {
		t.Fatalf("cloudqcd_trace_jobs_total = %v, want [12]", got)
	}
	var phaseSum, wantPhaseSum float64
	for _, v := range samples["cloudqcd_jct_attribution_cx_total"] {
		phaseSum += v
	}
	for _, ta := range sums {
		wantPhaseSum += ta.Queue + ta.Compile + ta.Local + ta.Network + ta.Suspended
	}
	if phaseSum != wantPhaseSum {
		t.Fatalf("attribution metric sums to %v, traces to %v", phaseSum, wantPhaseSum)
	}
}

// TestTraceWALReplay: a WAL-replayed daemon rebuilds every span tree
// byte-identically — the recorder is re-populated by replaying the
// operation stream through the same deterministic stack, so the trace
// bodies (and the stats attribution inside the full stats body) match
// the crashed process's exactly.
func TestTraceWALReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, _, _ := newTracedWALServer(t, path)
	driveWALStream(t, srvA, clockA)
	if _, err := srvA.Drain(); err != nil {
		t.Fatal(err)
	}
	wantStats := rawGET(t, srvA, "/v1/stats")
	wantBodies := make([]string, 12)
	for id := 0; id < 12; id++ {
		_, wantBodies[id] = getTrace(t, srvA, id, http.StatusOK)
	}

	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, _, _ := newTracedWALServer(t, "")
	if _, err := srvB.Replay(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Drain(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 12; id++ {
		if _, got := getTrace(t, srvB, id, http.StatusOK); got != wantBodies[id] {
			t.Fatalf("job %d trace diverges after replay\n got %s\nwant %s", id, got, wantBodies[id])
		}
	}
	if got := rawGET(t, srvB, "/v1/stats"); got != wantStats {
		t.Fatalf("stats body diverges after replay\n got %s\nwant %s", got, wantStats)
	}
}

// TestTraceCrossShardRehome: a job preempted on shard 0 and resumed on
// shard 1 carries the whole story in one trace — a resolved suspension,
// positive suspended time, and a rehome span stamped with the router's
// decision — because the federation shares one recorder across shards.
func TestTraceCrossShardRehome(t *testing.T) {
	pCfg := place.DefaultConfig()
	pCfg.Seed = 7
	f, err := fed.New(fed.Config{
		Shard: core.Config{
			Placer:  place.NewCloudQC(pCfg),
			Mode:    core.EDFMode,
			Seed:    7,
			Preempt: core.PreemptRescue,
		},
		Clouds: []*cloud.Cloud{
			cloud.NewRandom(8, 0.3, 20, 5, 1),
			cloud.New(graph.Path(3), 20, 5),
		},
		SpillDepth: 1,
		Trace:      trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	srv, err := New(Config{Federation: f, Now: clock.now, TimeScale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	victim := submitRaw(t, srv, SubmitRequest{Tenant: 0, Circuit: "qugan_n39"}, http.StatusAccepted)
	clock.advance(10 * time.Millisecond)
	submitRaw(t, srv, SubmitRequest{Tenant: 1, Circuit: "ghz_n127", DeadlineSlack: 1e6}, http.StatusAccepted)
	moved := false
	for i := 0; i < 400 && !moved; i++ {
		clock.advance(50 * time.Millisecond)
		rawGET(t, srv, "/v1/stats")
		if s, ok := f.ShardOf(victim.ID); ok && s == 1 {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("victim never rehomed (preempt %+v)", f.PreemptStats())
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	tr, _ := getTrace(t, srv, victim.ID, http.StatusOK)
	if !tr.Done || tr.Failed {
		t.Fatalf("victim trace %+v", tr)
	}
	if len(tr.Suspends) == 0 || tr.Attribution.Suspended <= 0 {
		t.Fatalf("victim has no suspension: %+v / %+v", tr.Suspends, tr.Attribution)
	}
	for _, s := range tr.Suspends {
		if !s.Resumed {
			t.Fatalf("unresolved suspension %+v after drain", s)
		}
	}
	if len(tr.Rehomes) == 0 {
		t.Fatal("victim carries no rehome span")
	}
	last := tr.Rehomes[len(tr.Rehomes)-1]
	if last.From != 0 || last.To != 1 {
		t.Fatalf("rehome %+v, want shard 0 → 1", last)
	}
	switch last.Kind {
	case "affinity", "spill", "cold", "random", "direct":
	default:
		t.Fatalf("rehome kind %q is not a router decision", last.Kind)
	}
	if sum := tr.Attribution.Queue + tr.Attribution.Compile + tr.Attribution.Local +
		tr.Attribution.Network + tr.Attribution.Suspended; sum != tr.Attribution.JCT {
		t.Fatalf("victim phases sum to %v, JCT %v", sum, tr.Attribution.JCT)
	}
}

// TestEventsDroppedMarker: a tiny event ring overwrites unread events;
// an explicit-cursor resumer that fell off the ring gets a synthetic
// dropped marker (monotone seq, missed count), a fresh client gets
// none, and the daemon-wide drop counter surfaces on /metrics.
func TestEventsDroppedMarker(t *testing.T) {
	clock := newFakeClock()
	srv, err := New(Config{Federation: oneShard(t, testControllerConfig(7, core.FIFOMode)), Now: clock.now, TimeScale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	srv.events = newEventLog(4)
	for i := 0; i < 6; i++ {
		clock.advance(5 * time.Millisecond)
		submitRaw(t, srv, SubmitRequest{Tenant: i % 2, QASM: ghz3QASM}, http.StatusAccepted)
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	dropped := srv.events.dropped
	resumed := srv.events.after(0)
	fresh := srv.events.after(-1)
	srv.mu.Unlock()
	if dropped <= 0 {
		t.Fatalf("ring of 4 never dropped across 6 submissions (dropped=%d)", dropped)
	}
	if len(resumed) == 0 || resumed[0].Type != EventDropped {
		t.Fatalf("resume after cursor 0 did not lead with a dropped marker: %+v", resumed)
	}
	mark := resumed[0]
	if mark.Job != -1 || mark.Tenant != -1 || mark.Shard != -1 || mark.Missed <= 0 {
		t.Fatalf("dropped marker %+v", mark)
	}
	if len(resumed) < 2 || mark.Seq != resumed[1].Seq-1 {
		t.Fatalf("marker seq %d must slot just before oldest retained %d", mark.Seq, resumed[1].Seq)
	}
	// Cursor 0 saw event 0; everything up to the oldest retained is lost.
	if mark.Missed != resumed[1].Seq-1 {
		t.Fatalf("marker %+v: missed %d, want %d (cursor 0 → oldest %d)",
			mark, mark.Missed, resumed[1].Seq-1, resumed[1].Seq)
	}
	for _, ev := range fresh {
		if ev.Type == EventDropped {
			t.Fatalf("fresh client (no cursor) saw a dropped marker: %+v", ev)
		}
	}

	_, _, samples := parseExposition(t, rawGET(t, srv, "/metrics"))
	if got := samples["cloudqcd_events_dropped_total"]; len(got) != 1 || got[0] != float64(dropped) {
		t.Fatalf("cloudqcd_events_dropped_total = %v, want [%d]", got, dropped)
	}
}
