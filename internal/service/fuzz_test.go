package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/qasm"
	"cloudqc/internal/qlib"
)

// FuzzSubmit posts arbitrary bodies to POST /v1/jobs, the daemon's
// untrusted submission path, straight through ServeHTTP (no listener).
// No body may earn a 5xx, and GET /v1/stats must still answer 200
// afterwards. The one-shard cloud is small (4 QPUs × 10 computing
// qubits) and the fake clock moves 5 ms of wall time (5 CX) past each
// submission, so an accepted circuit reaches admission but stays
// cheap: anything wider than the cloud fails on arrival.
func FuzzSubmit(f *testing.F) {
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
	f.Add(`{"tenant": 0, "qasm": "OPENQASM 2.0;\nqreg q[0];\n"}`)
	f.Add(`{"tenant": "zero"`)
	f.Add(`not json`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		clock := newFakeClock()
		cfg := testControllerConfig(1, core.WFQMode)
		cfg.Cloud = cloud.NewRandom(4, 0.5, 10, 2, 1)
		srv, err := New(Config{Federation: oneShard(t, cfg), Now: clock.now, TimeScale: 1000, MaxInFlight: 4})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("POST /v1/jobs %q: %d %s", body, rr.Code, rr.Body)
		}
		clock.advance(5 * time.Millisecond)
		rr = httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /v1/stats after POST %q: %d %s", body, rr.Code, rr.Body)
		}
	})
}
