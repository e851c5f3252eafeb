package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/wal"
)

// Small inline circuits keep the differential matrix cheap: every cut
// point replays and drains the whole stream from scratch.
const (
	ghz3QASM   = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q[2] -> c[2];\n"
	chain4QASM = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\nmeasure q[3] -> c[3];\n"
)

// newWALServer builds a WFQ server over a fresh controller of the
// shared test configuration, with its own recorder (sampled every 5 CX
// so the series has real length) and, when path is non-empty, a WAL.
func newWALServer(t *testing.T, path string) (*Server, *fakeClock, *core.LiveController, *metrics.Recorder, *wal.Log) {
	t.Helper()
	rec := metrics.NewRecorder(5)
	ccfg := testControllerConfig(7, core.WFQMode)
	ccfg.Recorder = rec
	f := oneShard(t, ccfg)
	var wlog *wal.Log
	if path != "" {
		var (
			recovered []wal.Record
			err       error
		)
		if wlog, recovered, err = wal.Open(path); err != nil {
			t.Fatal(err)
		}
		if len(recovered) != 0 {
			t.Fatalf("fresh log recovered %d records", len(recovered))
		}
	}
	clock := newFakeClock()
	srv, err := New(Config{Federation: f, Now: clock.now, TimeScale: 1000, WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	return srv, clock, f.Shard(0), rec, wlog
}

// rawGET runs one request through the handler without a socket and
// returns the raw body — byte-for-byte comparable across servers.
func rawGET(t *testing.T, srv *Server, path string) string {
	t.Helper()
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", path, rw.Code, rw.Body.String())
	}
	return rw.Body.String()
}

// submitRaw POSTs one submission through the handler and returns the
// decoded response, asserting the expected status code.
func submitRaw(t *testing.T, srv *Server, req SubmitRequest, wantCode int) JobResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rw := httptest.NewRecorder()
	hr := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(rw, hr)
	if rw.Code != wantCode {
		t.Fatalf("POST /v1/jobs: %d (want %d)\n%s", rw.Code, wantCode, rw.Body.String())
	}
	var jr JobResponse
	if wantCode == http.StatusAccepted {
		if err := json.Unmarshal(rw.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
	}
	return jr
}

// driveWALStream submits a deterministic 12-job mixed stream — three
// tenants with distinct WFQ weights, two circuit shapes, a couple of
// deadline-carrying jobs — with clock advances between submissions and
// periodic stats polls (extra step records with no adjacent job).
func driveWALStream(t *testing.T, srv *Server, clock *fakeClock) {
	t.Helper()
	gaps := []time.Duration{0, 7, 13, 4, 21, 9, 16, 3, 11, 26, 8, 14}
	for i, gap := range gaps {
		clock.advance(gap * time.Millisecond)
		req := SubmitRequest{Tenant: i % 3, Priority: 1 + i%3, QASM: ghz3QASM}
		if i%4 == 1 {
			req.QASM = chain4QASM
		}
		if i%5 == 2 {
			req.DeadlineSlack = 200
		}
		submitRaw(t, srv, req, http.StatusAccepted)
		if i%3 == 2 {
			clock.advance(5 * time.Millisecond)
			rawGET(t, srv, "/v1/stats")
		}
	}
	clock.advance(40 * time.Millisecond)
	rawGET(t, srv, "/v1/stats")
}

// resultsJSON canonicalizes drain results for bit-identity comparison.
func resultsJSON(t *testing.T, res []*core.JobResult) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWALReplayDifferential is the durability contract: kill the
// daemon after ANY record and a restarted daemon that replays the
// recovered prefix, then the rest of the stream, reproduces the
// uninterrupted run bit-identically — per-job results, round/event
// counts, the full recorder series, and the /v1/stats wire body.
// Every cut point k plays recs[:k] and recs[k:] as separate Replay
// calls, modeling a crash-recovered prefix plus the live traffic that
// would have followed.
func TestWALReplayDifferential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, lcA, recA, _ := newWALServer(t, path)
	driveWALStream(t, srvA, clockA)
	resA, err := srvA.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wantResults := resultsJSON(t, resA)
	wantStats := rawGET(t, srvA, "/v1/stats")
	wantRounds, wantEvents := lcA.RunStats().Rounds, lcA.RunStats().Events
	wantSamples := recA.Samples()

	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	njobs := 0
	for _, r := range recs {
		if r.Type == wal.TypeJob {
			njobs++
		}
	}
	if njobs != 12 {
		t.Fatalf("log holds %d job records, want 12", njobs)
	}

	for k := 0; k <= len(recs); k++ {
		srvB, _, lcB, recB, _ := newWALServer(t, "")
		n1, err := srvB.Replay(recs[:k])
		if err != nil {
			t.Fatalf("cut %d: replay prefix: %v", k, err)
		}
		n2, err := srvB.Replay(recs[k:])
		if err != nil {
			t.Fatalf("cut %d: replay suffix: %v", k, err)
		}
		if n1+n2 != njobs {
			t.Fatalf("cut %d: replayed %d+%d jobs, want %d", k, n1, n2, njobs)
		}
		resB, err := srvB.Drain()
		if err != nil {
			t.Fatalf("cut %d: drain: %v", k, err)
		}
		if got := resultsJSON(t, resB); got != wantResults {
			t.Fatalf("cut %d: results diverge\n got %s\nwant %s", k, got, wantResults)
		}
		if st := lcB.RunStats(); st.Rounds != wantRounds || st.Events != wantEvents {
			t.Fatalf("cut %d: rounds/events %d/%d, want %d/%d", k, st.Rounds, st.Events, wantRounds, wantEvents)
		}
		if !reflect.DeepEqual(recB.Samples(), wantSamples) {
			t.Fatalf("cut %d: recorder series diverges (%d vs %d samples)", k, len(recB.Samples()), len(wantSamples))
		}
		if got := rawGET(t, srvB, "/v1/stats"); got != wantStats {
			t.Fatalf("cut %d: stats body diverges\n got %s\nwant %s", k, got, wantStats)
		}
	}
}

// TestWALDuplicateReplayRejected: feeding the same log twice must fail
// loudly on the first repeated step record instead of silently forking
// history with duplicate jobs.
func TestWALDuplicateReplayRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, _, _, _ := newWALServer(t, path)
	driveWALStream(t, srvA, clockA)
	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, _, _, _ := newWALServer(t, "")
	if _, err := srvB.Replay(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Replay(recs); err == nil {
		t.Fatal("second replay of the same log succeeded; want duplicate-replay error")
	}
}

// TestWALTruncatedFinalRecord: a crash mid-append leaves a torn final
// line; recovery must drop exactly that record and replay the intact
// prefix — the service keeps working on the recovered state.
func TestWALTruncatedFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, _, _, _ := newWALServer(t, path)
	driveWALStream(t, srvA, clockA)
	_, intact, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: strip its newline and half its bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	_, recovered, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(intact)-1 {
		t.Fatalf("recovered %d records from torn log, want %d", len(recovered), len(intact)-1)
	}
	srvB, _, _, _, _ := newWALServer(t, "")
	if _, err := srvB.Replay(recovered); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestWALEmptyLogColdStart: a fresh (or cleanly truncated) log recovers
// zero records and the daemon cold-starts normally — submissions are
// logged and a subsequent restart replays them.
func TestWALEmptyLogColdStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, _, _, wlog := newWALServer(t, path)
	if _, err := srvA.Replay(nil); err != nil {
		t.Fatalf("empty replay on cold start: %v", err)
	}
	submitRaw(t, srvA, SubmitRequest{Tenant: 0, QASM: ghz3QASM}, http.StatusAccepted)
	clockA.advance(20 * time.Millisecond)
	submitRaw(t, srvA, SubmitRequest{Tenant: 1, QASM: ghz3QASM}, http.StatusAccepted)
	if st := wlog.Stats(); st.Records < 3 || st.Syncs < 2 {
		t.Fatalf("wal stats after two submissions: %+v", st)
	}
	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, _, _, _ := newWALServer(t, "")
	n, err := srvB.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d jobs, want 2", n)
	}
	if _, err := srvB.Drain(); err != nil {
		t.Fatal(err)
	}
}

// newCrossShardWALServer builds the two-shard preempt-rescue federation
// of TestServicePreemptionCrossShard, with an optional WAL.
func newCrossShardWALServer(t *testing.T, path string) (*Server, *fakeClock, *fed.Federation) {
	t.Helper()
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
	})
	if err != nil {
		t.Fatal(err)
	}
	var wlog *wal.Log
	if path != "" {
		if wlog, _, err = wal.Open(path); err != nil {
			t.Fatal(err)
		}
	}
	clock := newFakeClock()
	srv, err := New(Config{Federation: f, Now: clock.now, TimeScale: 1000, WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	return srv, clock, f
}

// TestWALReplayCrossShard: the hardest recovery case — a job preempted
// on shard 0 and resumed on shard 1 mid-log. Replaying into a fresh
// two-shard federation reproduces the cross-shard rehoming (the job
// answers under its original id on the same shard) and the preemption
// counters, and the drained results match the uninterrupted run's
// byte for byte.
func TestWALReplayCrossShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, fA := newCrossShardWALServer(t, path)
	victim := submitRaw(t, srvA, SubmitRequest{Tenant: 0, Circuit: "qugan_n39"}, http.StatusAccepted)
	clockA.advance(10 * time.Millisecond)
	submitRaw(t, srvA, SubmitRequest{Tenant: 1, Circuit: "ghz_n127", DeadlineSlack: 1e6}, http.StatusAccepted)
	moved := false
	for i := 0; i < 400 && !moved; i++ {
		clockA.advance(50 * time.Millisecond)
		rawGET(t, srvA, "/v1/stats")
		if s, ok := fA.ShardOf(victim.ID); ok && s == 1 {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("victim never rehomed to shard 1 (preempt %+v)", fA.PreemptStats())
	}

	// "Kill" here: the log ends with the victim already rehomed. A
	// fresh federation replaying it must land in the same state.
	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, fB := newCrossShardWALServer(t, "")
	if _, err := srvB.Replay(recs); err != nil {
		t.Fatal(err)
	}
	if s, ok := fB.ShardOf(victim.ID); !ok || s != 1 {
		t.Fatalf("replayed victim on shard %d (ok=%v), want 1", s, ok)
	}
	if pa, pb := fA.PreemptStats(), fB.PreemptStats(); !reflect.DeepEqual(pa, pb) || pb.Preemptions == 0 {
		t.Fatalf("preempt stats diverge: live %+v, replayed %+v", pa, pb)
	}

	resA, err := srvA.Drain()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := srvB.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultsJSON(t, resA), resultsJSON(t, resB); a != b {
		t.Fatalf("drained results diverge\nlive   %s\nreplay %s", a, b)
	}
	jr := JobResponse{}
	rw := httptest.NewRecorder()
	srvB.ServeHTTP(rw, httptest.NewRequest("GET", fmt.Sprintf("/v1/jobs/%d", victim.ID), nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("post-drain victim on replayed server: %d", rw.Code)
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID != victim.ID || jr.Status != "completed" {
		t.Fatalf("post-drain victim %+v", jr)
	}
}

// newWatermarkServer builds a WFQ server with a soft degrade watermark
// of 4 and a one-job quota per tenant, with a WAL when path is set.
func newWatermarkServer(t *testing.T, path string) (*Server, *fakeClock, *fed.Federation) {
	t.Helper()
	f := oneShard(t, testControllerConfig(7, core.WFQMode))
	var wlog *wal.Log
	if path != "" {
		var err error
		if wlog, _, err = wal.Open(path); err != nil {
			t.Fatal(err)
		}
	}
	clock := newFakeClock()
	srv, err := New(Config{
		Federation: f, Now: clock.now, TimeScale: 1000, WAL: wlog,
		DegradeBacklog: 4, MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, clock, f
}

// TestWALReplayWatermarks: a submission refused with 429 while the
// backlog sits past the degrade watermark is never logged, so it must
// not flip the admission mode either — otherwise the live daemon runs
// FIFO while its replay runs WFQ. Live and replayed daemons must agree
// on the mode at the crash point, the drained results, and /v1/stats
// (apart from the rejection counter, which replay never sees).
func TestWALReplayWatermarks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, fA := newWatermarkServer(t, path)
	for tenant, name := range []string{"qft_n100", "ising_n98", "knn_n67", "qaoa_n64"} {
		submitRaw(t, srvA, SubmitRequest{Tenant: tenant, Circuit: name}, http.StatusAccepted)
	}
	if b := srvA.backlog(); b < 4 {
		t.Fatalf("setup: backlog %d, want at or past the watermark 4", b)
	}
	submitRaw(t, srvA, SubmitRequest{Tenant: 0, Circuit: "qft_n100"}, http.StatusTooManyRequests)
	clockA.advance(30 * time.Millisecond)
	rawGET(t, srvA, "/v1/stats")
	wantMode := fA.Mode()

	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, fB := newWatermarkServer(t, "")
	if n, err := srvB.Replay(recs); err != nil || n != 4 {
		t.Fatalf("replay: %d jobs, %v (want 4)", n, err)
	}
	if got := fB.Mode(); got != wantMode {
		t.Fatalf("replayed admission mode %v, live daemon crashed in %v", got, wantMode)
	}

	resA, err := srvA.Drain()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := srvB.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultsJSON(t, resA), resultsJSON(t, resB); a != b {
		t.Fatalf("drained results diverge\nlive   %s\nreplay %s", a, b)
	}
	var stA, stB StatsResponse
	if err := json.Unmarshal([]byte(rawGET(t, srvA, "/v1/stats")), &stA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(rawGET(t, srvB, "/v1/stats")), &stB); err != nil {
		t.Fatal(err)
	}
	if stA.Rejected != 1 || stB.Rejected != 0 {
		t.Fatalf("rejected live %d, replayed %d; want 1 and 0", stA.Rejected, stB.Rejected)
	}
	stA.Rejected = 0
	a, err := json.Marshal(stA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(stB)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("stats diverge\nlive   %s\nreplay %s", a, b)
	}
}
