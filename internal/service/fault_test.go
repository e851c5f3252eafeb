package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/wal"
)

// postFault POSTs one fault event body through the handler and returns
// the decoded acknowledgement, asserting the expected status code.
func postFault(t *testing.T, srv *Server, body string, wantCode int) FaultResponse {
	t.Helper()
	rw := httptest.NewRecorder()
	hr := httptest.NewRequest("POST", "/v1/faults", strings.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(rw, hr)
	if rw.Code != wantCode {
		t.Fatalf("POST /v1/faults: %d (want %d)\n%s", rw.Code, wantCode, rw.Body.String())
	}
	var fr FaultResponse
	if wantCode == http.StatusAccepted {
		if err := json.Unmarshal(rw.Body.Bytes(), &fr); err != nil {
			t.Fatal(err)
		}
	}
	return fr
}

// TestServiceFaultEndpoint drives the admin fault surface end to end on
// a two-shard federation: malformed and out-of-fleet events are 400s, a
// shard drain is acknowledged with a 202, the drained shard's jobs keep
// answering under their original ids from their new shard, and the
// injection shows up in /v1/stats and /metrics.
func TestServiceFaultEndpoint(t *testing.T) {
	srv, clock, f := newCrossShardWALServer(t, "")
	for _, body := range []string{
		`{"kind":"meteor_strike"}`,
		`{"kind":"qpu_outage","shard":5,"qpu":0,"from":0,"to":10}`,
		`{"kind":"qpu_outage","qpu":0,"from":10,"to":10}`,
		`not json at all`,
	} {
		postFault(t, srv, body, http.StatusBadRequest)
	}

	// Distinct tenants cold-route across both shards; qugan_n39 fits the
	// small 3-QPU shard and runs long enough to be resident at the drain.
	ids := make([]int, 0, 6)
	for i := 0; i < 6; i++ {
		jr := submitRaw(t, srv, SubmitRequest{Tenant: i, Circuit: "qugan_n39"}, http.StatusAccepted)
		ids = append(ids, jr.ID)
	}
	var onShard1 []int
	for _, id := range ids {
		if s, ok := f.ShardOf(id); ok && s == 1 {
			onShard1 = append(onShard1, id)
		}
	}
	if len(onShard1) == 0 {
		t.Fatal("setup: no job routed to shard 1")
	}

	fr := postFault(t, srv, `{"kind":"shard_drain","shard":1,"from":0}`, http.StatusAccepted)
	if fr.Kind != fault.KindShardDrain || fr.Shard != 1 {
		t.Fatalf("drain acknowledgement %+v", fr)
	}
	for i := 0; i < 100 && f.FaultStats().ShardDrains == 0; i++ {
		clock.advance(50 * time.Millisecond)
		rawGET(t, srv, "/v1/stats")
	}
	fs := f.FaultStats()
	if fs.ShardDrains != 1 {
		t.Fatalf("drain never fired: %+v", fs)
	}
	if fs.RescuedDrain != int64(len(onShard1)) {
		t.Fatalf("rescued %d jobs off shard 1, want %d", fs.RescuedDrain, len(onShard1))
	}

	// Every evacuated job still answers under its original id, rehomed.
	for _, id := range onShard1 {
		if s, ok := f.ShardOf(id); !ok || s != 0 {
			t.Fatalf("job %d on shard %d (ok=%v) after drain, want 0", id, s, ok)
		}
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest("GET", fmt.Sprintf("/v1/jobs/%d", id), nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%d after drain: %d\n%s", id, rw.Code, rw.Body.String())
		}
		var jr JobResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		if jr.ID != id {
			t.Fatalf("job %d answers as %d after rehome", id, jr.ID)
		}
	}

	var st struct {
		Faults fault.Stats `json:"faults"`
	}
	if err := json.Unmarshal([]byte(rawGET(t, srv, "/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Faults != fs {
		t.Fatalf("/v1/stats faults %+v, want %+v", st.Faults, fs)
	}
	if m := rawGET(t, srv, "/metrics"); !strings.Contains(m, `cloudqcd_faults_injected_total{kind="shard_drain"} 1`) {
		t.Fatalf("/metrics missing the drain counter:\n%s", m)
	}

	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	postFault(t, srv, `{"kind":"qpu_outage","qpu":0,"from":0,"to":10}`, http.StatusConflict)
}

// TestDrainEvictsRunningJob: a job running on a shard when it drains
// leaves it the way an outage rescue does — placed, then evicted on the
// drained shard — and re-enters admission on the surviving shard, where
// it is queued and resumes from its checkpoint before it completes.
func TestDrainEvictsRunningJob(t *testing.T) {
	srv, clock, f := newCrossShardWALServer(t, "")
	var ids []int
	for i := 0; i < 6; i++ {
		ids = append(ids, submitRaw(t, srv, SubmitRequest{Tenant: i, Circuit: "qugan_n39"}, http.StatusAccepted).ID)
	}
	clock.advance(10 * time.Millisecond)
	rawGET(t, srv, "/v1/stats")
	victim := -1
	for _, id := range ids {
		if s, _ := f.ShardOf(id); s == 1 && f.Status(id) == core.StatusRunning {
			victim = id
		}
	}
	if victim < 0 {
		t.Fatal("setup: no job running on shard 1")
	}

	postFault(t, srv, `{"kind":"shard_drain","shard":1,"from":0}`, http.StatusAccepted)
	for i := 0; i < 100 && f.FaultStats().ShardDrains == 0; i++ {
		clock.advance(50 * time.Millisecond)
		rawGET(t, srv, "/v1/stats")
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range srv.events.after(-1) {
		if ev.Job == victim && ev.Type != EventSubmit {
			got = append(got, fmt.Sprintf("%s@%d%s", ev.Type, ev.Shard, ev.Status))
		}
	}
	want := []string{"queued@1", "placed@1", "evicted@1", "queued@0", "resumed@0", "done@0completed"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("job %d events %v, want %v", victim, got, want)
	}
}

// driveFaultWALStream is driveWALStream with two admin fault injections
// woven into the middle of the submission stream — a QPU outage window
// and a degraded-link window, both WAL-logged — and a long final advance
// so both fault windows open and close inside the run.
func driveFaultWALStream(t *testing.T, srv *Server, clock *fakeClock) {
	t.Helper()
	edge := cloud.NewRandom(10, 0.3, 20, 5, 1).Topology().Edges()[0]
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
		switch i {
		case 3:
			postFault(t, srv, `{"kind":"qpu_outage","qpu":0,"from":40,"to":90}`, http.StatusAccepted)
		case 7:
			postFault(t, srv, fmt.Sprintf(
				`{"kind":"link_degrade","u":%d,"v":%d,"scale":0.5,"from":60,"to":140}`,
				edge.U, edge.V), http.StatusAccepted)
		}
		if i%3 == 2 {
			clock.advance(5 * time.Millisecond)
			rawGET(t, srv, "/v1/stats")
		}
	}
	clock.advance(200 * time.Millisecond)
	rawGET(t, srv, "/v1/stats")
}

// TestWALReplayFaultDifferential extends the kill-at-every-record
// matrix to fault-bearing logs: with an outage and a dead-link window
// recorded mid-stream, a daemon killed after ANY record and restarted
// over the recovered prefix plus the rest of the stream reproduces the
// uninterrupted faulted run bit-identically.
func TestWALReplayFaultDifferential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, lcA, recA, _ := newWALServer(t, path)
	driveFaultWALStream(t, srvA, clockA)
	resA, err := srvA.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wantResults := resultsJSON(t, resA)
	wantStats := rawGET(t, srvA, "/v1/stats")
	wantRounds, wantEvents := lcA.RunStats().Rounds, lcA.RunStats().Events
	wantSamples := recA.Samples()

	// Both injected faults genuinely fired in the reference run.
	var st struct {
		Faults fault.Stats `json:"faults"`
	}
	if err := json.Unmarshal([]byte(wantStats), &st); err != nil {
		t.Fatal(err)
	}
	if st.Faults.QPUOutages != 1 || st.Faults.LinkDegrades != 1 {
		t.Fatalf("reference faults never fired: %+v", st.Faults)
	}

	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	njobs, nfaults := 0, 0
	for _, r := range recs {
		switch r.Type {
		case wal.TypeJob:
			njobs++
		case wal.TypeFault:
			nfaults++
		}
	}
	if njobs != 12 || nfaults != 2 {
		t.Fatalf("log holds %d job / %d fault records, want 12 / 2", njobs, nfaults)
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

// TestWALFaultDuplicateReplayRejected: a fault-bearing log fed twice
// must fail loudly instead of silently re-injecting history.
func TestWALFaultDuplicateReplayRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, _, _, _ := newWALServer(t, path)
	driveFaultWALStream(t, srvA, clockA)
	_, recs, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, _, _, _ := newWALServer(t, "")
	if _, err := srvB.Replay(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Replay(recs); err == nil {
		t.Fatal("second replay of a fault-bearing log succeeded; want duplicate-replay error")
	}
}

// TestWALTornFaultRecord: a crash tearing the final record — here a
// fault injection — drops exactly that record on recovery, and the
// replayed prefix still drains cleanly.
func TestWALTornFaultRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	srvA, clockA, _, _, _ := newWALServer(t, path)
	submitRaw(t, srvA, SubmitRequest{Tenant: 0, QASM: ghz3QASM}, http.StatusAccepted)
	clockA.advance(10 * time.Millisecond)
	submitRaw(t, srvA, SubmitRequest{Tenant: 1, QASM: chain4QASM}, http.StatusAccepted)
	postFault(t, srvA, `{"kind":"qpu_outage","qpu":1,"from":500,"to":600}`, http.StatusAccepted)

	_, intact, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if intact[len(intact)-1].Type != wal.TypeFault {
		t.Fatalf("final record is %q, want the fault", intact[len(intact)-1].Type)
	}
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
