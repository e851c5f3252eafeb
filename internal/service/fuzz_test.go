package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/qasm"
	"cloudqc/internal/qlib"
	"cloudqc/internal/wal"
)

// addSubmitSeeds seeds a submission fuzz target: small inline programs,
// qlib names with a deadline, both/neither fields, out-of-range numbers
// (a slack whose product with the depth overflows to +Inf among them),
// and malformed JSON.
func addSubmitSeeds(f *testing.F) {
	for _, c := range []*circuit.Circuit{qlib.GHZ(5), qlib.Cat(8), qlib.Adder(4)} {
		body, err := json.Marshal(SubmitRequest{Tenant: 1, QASM: qasm.Write(c)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	for _, name := range []string{"qft_n29", "ghz_n127", "knn_n67"} {
		body, err := json.Marshal(SubmitRequest{Tenant: 2, Priority: 3, Circuit: name, DeadlineSlack: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	f.Add(`{"tenant": 0, "circuit": "qft_n29", "qasm": "OPENQASM 2.0; qreg q[2]; cx q[0],q[1];"}`)
	f.Add(`{"tenant": 0}`)
	f.Add(`{}`)
	f.Add(`{"tenant": -1, "priority": -5, "circuit": "nope_n1", "deadline_slack": -1e308}`)
	f.Add(`{"tenant":0,"circuit":"qft_n29","deadline_slack":1e308}`)
	f.Add(`{"tenant": 0, "qasm": "OPENQASM 2.0;\nqreg q[0];\n"}`)
	f.Add(`{"tenant": "zero"`)
	f.Add(`not json`)
	f.Add(``)
}

// checkSubmit posts one body to POST /v1/jobs straight through
// ServeHTTP (no listener) on a small one-shard cloud (4 QPUs × 10
// computing qubits) with the WAL wlog, which may be nil. No body may
// earn a 5xx; an accepted job must answer 202 and then GET
// /v1/jobs/{id} with bodies that decode; and GET /v1/stats must still
// answer 200 afterwards. The fake clock moves 5 ms of wall time (5 CX)
// past the submission, so an accepted circuit reaches admission but
// stays cheap: anything wider than the cloud fails on arrival.
func checkSubmit(t *testing.T, body string, wlog *wal.Log) {
	clock := newFakeClock()
	cfg := testControllerConfig(1, core.WFQMode)
	cfg.Cloud = cloud.NewRandom(4, 0.5, 10, 2, 1)
	srv, err := New(Config{Federation: oneShard(t, cfg), Now: clock.now, TimeScale: 1000, MaxInFlight: 4, WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rr.Code >= 500 {
		t.Fatalf("POST /v1/jobs %q: %d %s", body, rr.Code, rr.Body)
	}
	if rr.Code == http.StatusAccepted {
		var jr JobResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &jr); err != nil {
			t.Fatalf("POST /v1/jobs %q: 202 body %q does not decode: %v", body, rr.Body, err)
		}
		rr = httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+itoa(jr.ID), nil))
		var got JobResponse
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &got) != nil || got.ID != jr.ID {
			t.Fatalf("GET /v1/jobs/%d after POST %q: %d %q", jr.ID, body, rr.Code, rr.Body)
		}
	}
	clock.advance(5 * time.Millisecond)
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats after POST %q: %d %s", body, rr.Code, rr.Body)
	}
}

// FuzzSubmit posts arbitrary bodies to POST /v1/jobs, the daemon's
// untrusted submission path, through checkSubmit without a WAL.
func FuzzSubmit(f *testing.F) {
	addSubmitSeeds(f)
	f.Fuzz(func(t *testing.T, body string) { checkSubmit(t, body, nil) })
}

// FuzzWALSubmit is FuzzSubmit with a write-ahead log in a fresh
// directory, so every accepted body is also encoded as a WAL record
// and fsynced before its 202.
func FuzzWALSubmit(f *testing.F) {
	addSubmitSeeds(f)
	f.Fuzz(func(t *testing.T, body string) {
		wlog, _, err := wal.Open(filepath.Join(t.TempDir(), "wal"))
		if err != nil {
			t.Fatal(err)
		}
		checkSubmit(t, body, wlog)
		if err := wlog.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSubmitOverflowingDeadline: a deadline slack whose product with
// the circuit depth overflows to +Inf is refused with 400, with and
// without a WAL, before the tenant's token bucket is touched: with a
// burst of one, the tenant's next valid submission is still accepted.
func TestSubmitOverflowingDeadline(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			var wlog *wal.Log
			if withWAL {
				var err error
				if wlog, _, err = wal.Open(filepath.Join(t.TempDir(), "wal")); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := wlog.Close(); err != nil {
						t.Error(err)
					}
				})
			}
			clock := newFakeClock()
			srv, err := New(Config{Federation: oneShard(t, testControllerConfig(1, core.FIFOMode)), Now: clock.now, Rate: 1, Burst: 1, WAL: wlog})
			if err != nil {
				t.Fatal(err)
			}
			submitRaw(t, srv, SubmitRequest{Tenant: 0, Circuit: "qft_n29", DeadlineSlack: 1e308}, http.StatusBadRequest)
			if b := srv.buckets[0]; b != nil {
				t.Fatalf("the refused submission touched the token bucket: %+v", *b)
			}
			jr := submitRaw(t, srv, SubmitRequest{Tenant: 0, Circuit: "qft_n29", DeadlineSlack: 2}, http.StatusAccepted)
			if jr.ID != 0 || jr.Deadline <= 0 {
				t.Fatalf("next submission %+v, want job 0 with a deadline", jr)
			}
			if withWAL && wlog.Stats().Syncs != 1 {
				t.Fatalf("WAL fsyncs %d, want 1 (the accepted job only)", wlog.Stats().Syncs)
			}
		})
	}
}
