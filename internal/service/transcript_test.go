package service

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudqc/internal/core"
	"cloudqc/internal/trace"
)

var updateTranscript = flag.Bool("update", false, "rewrite testdata/route_transcript.txt from the current code")

// transcript runs requests straight through a server's ServeHTTP and
// records what a client sees of each: status, Content-Type,
// Cache-Control, Retry-After and the body, byte for byte.
type transcript struct {
	t     *testing.T
	out   bytes.Buffer
	codes map[int]bool
}

// do sends one request. A header value "cancel" cancels the request's
// context up front, which ends an SSE stream after its first poll.
func (tr *transcript) do(srv *Server, method, path, body string, header ...string) {
	tr.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for i := 0; i+1 < len(header); i += 2 {
		if header[i] == "cancel" {
			ctx, cancel := context.WithCancel(req.Context())
			cancel()
			req = req.WithContext(ctx)
			continue
		}
		req.Header.Set(header[i], header[i+1])
	}
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	h := rw.Result().Header
	fmt.Fprintf(&tr.out, "> %s %s %s %q\n< %d content-type=%q cache-control=%q retry-after=%q\n%s\n",
		method, path, strings.Join(header, " "), body,
		rw.Code, h.Get("Content-Type"), h.Get("Cache-Control"), h.Get("Retry-After"), rw.Body.String())
	tr.codes[rw.Code] = true
}

// TestRouteTranscript drives one scripted fake-clock session over every
// route and compares what each request answered against
// testdata/route_transcript.txt: every status the routes can refuse
// with (400, 404, 409, 429 with Retry-After, 503), /metrics, and the
// first frames of both SSE streams. It pins each route's check order
// (a malformed id is 400 before /trace's tracing-disabled 404; a
// malformed body is 400 before a drained server's 409).
func TestRouteTranscript(t *testing.T) {
	tr := &transcript{t: t, codes: make(map[int]bool)}

	ccfg := testControllerConfig(7, core.WFQMode)
	ccfg.Trace = trace.New()
	clock := newFakeClock()
	srv, err := New(Config{
		Federation: oneShard(t, ccfg), Now: clock.now, TimeScale: 1000,
		Rate: 100, Burst: 2, MaxInFlight: 3, DegradeBacklog: 3, ShedBacklog: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) { tr.do(srv, "POST", "/v1/jobs", body) }
	get := func(path string, header ...string) { tr.do(srv, "GET", path, "", header...) }

	get("/v1/stats")
	post(`not json`)
	post(`{"tenant":0}`)
	post(`{"tenant":0,"circuit":"qft_n29","qasm":"OPENQASM 2.0; qreg q[2];"}`)
	post(`{"tenant":0,"circuit":"nope_n1"}`)
	post(`{"tenant":0,"qasm":"OPENQASM 2.0;\nqreg q[0];\n"}`)
	post(`{"tenant":0,"circuit":"qft_n29","deadline_slack":2}`)
	post(`{"tenant":0,"circuit":"qft_n29"}`)
	post(`{"tenant":0,"circuit":"qft_n29"}`) // 429: tenant 0's burst is spent
	post(`{"tenant":1,"priority":2,"circuit":"ghz_n127"}`)
	post(`{"tenant":2,"circuit":"qugan_n39","deadline_slack":3}`)
	post(`{"tenant":3,"circuit":"knn_n67"}`)
	post(`{"tenant":4,"circuit":"qft_n29"}`) // 503: backlog 5 at the watermark

	clock.advance(20 * time.Millisecond)
	get("/v1/cluster")
	post(`{"tenant":0,"circuit":"qft_n29"}`)
	post(`{"tenant":0,"circuit":"qft_n29"}`) // 429: tenant 0 has 3 in flight
	get("/v1/jobs/0")
	get("/v1/jobs/x")
	get("/v1/jobs/99")
	tr.do(srv, "POST", "/v1/faults", `not json`)
	tr.do(srv, "POST", "/v1/faults", `{"kind":"meteor_strike"}`)
	tr.do(srv, "POST", "/v1/faults", `{"kind":"qpu_outage","qpu":9,"from":1000,"to":2000}`)

	clock.advance(3 * time.Second)
	get("/v1/jobs/0/trace")
	get("/v1/jobs/x/trace")
	get("/v1/jobs/99/trace")
	get("/v1/jobs/0/events", "cancel", "")
	get("/v1/jobs/3/events")
	get("/v1/jobs/x/events")
	get("/v1/jobs/99/events")
	get("/v1/events", "cancel", "")
	get("/v1/events", "cancel", "", "Last-Event-ID", "12")
	get("/metrics")
	get("/v1/stats")

	// A deadline slack whose product with the circuit depth overflows.
	post(`{"tenant":9,"circuit":"qft_n29","deadline_slack":1e308}`)
	get("/v1/jobs/6")

	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	post(`{"tenant":0,"circuit":"qft_n29"}`)
	post(`not json`)
	tr.do(srv, "POST", "/v1/faults", `{"kind":"qpu_outage","qpu":9,"from":5000,"to":6000}`)

	untraced, err := New(Config{Federation: oneShard(t, testControllerConfig(7, core.WFQMode)), Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	tr.do(untraced, "GET", "/v1/jobs/x/trace", "")
	tr.do(untraced, "GET", "/v1/jobs/0/trace", "")

	for _, code := range []int{200, 202, 400, 404, 409, 429, 503} {
		if !tr.codes[code] {
			t.Errorf("the session never answered %d", code)
		}
	}
	path := filepath.Join("testdata", "route_transcript.txt")
	if *updateTranscript {
		if err := os.WriteFile(path, tr.out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got := tr.out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript differs at line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
