package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/sched"
	"cloudqc/internal/wal"
)

// fakeClock drives the virtual-time pacer deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testControllerConfig is shared between the server under test and the
// offline reference Run, so stats can be compared bit-for-bit.
func testControllerConfig(seed int64, mode core.Mode) core.Config {
	pCfg := place.DefaultConfig()
	pCfg.Seed = seed
	return core.Config{
		Cloud:  cloud.NewRandom(10, 0.3, 20, 5, 1),
		Placer: place.NewCloudQC(pCfg),
		Mode:   mode,
		Seed:   seed,
	}
}

// oneShard builds a one-shard federation from a single-controller
// configuration: its cloud, recorder and span recorder move to their
// federation-level slots.
func oneShard(t *testing.T, cfg core.Config) *fed.Federation {
	t.Helper()
	c, rec, trc := cfg.Cloud, cfg.Recorder, cfg.Trace
	cfg.Cloud, cfg.Recorder, cfg.Trace = nil, nil, nil
	f, err := fed.New(fed.Config{
		Shard:     cfg,
		Clouds:    []*cloud.Cloud{c},
		Recorders: []*metrics.Recorder{rec},
		Trace:     trc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newTestServer(t *testing.T, cfg Config, seed int64, mode core.Mode) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	cfg.Federation = oneShard(t, testControllerConfig(seed, mode))
	cfg.Now = clock.now
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1000
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, clock
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %s %s response (%d): %v\n%s", method, url, resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestServiceEndToEnd is the acceptance flow: two tenants submit over
// HTTP, one exceeds its in-flight quota (429 with a retry hint), jobs
// are polled to completion under the virtual-time pacer, and the final
// /v1/stats SLO numbers match AggregateSLO over an offline Run of the
// identical stream.
func TestServiceEndToEnd(t *testing.T) {
	const seed = 11
	_, ts, clock := newTestServer(t, Config{MaxInFlight: 2}, seed, core.WFQMode)

	type accepted struct {
		resp    JobResponse
		circuit string
		prio    int
	}
	var stream []accepted
	submit := func(tenant, prio int, name string, slack float64) (JobResponse, int, http.Header) {
		var jr JobResponse
		code, hdr := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{
			Tenant: tenant, Priority: prio, Circuit: name, DeadlineSlack: slack,
		}, &jr)
		if code == http.StatusAccepted {
			stream = append(stream, accepted{resp: jr, circuit: name, prio: prio})
		}
		return jr, code, hdr
	}

	// Tenant 0 fills its quota; tenant 1 is unaffected by it.
	if _, code, _ := submit(0, 1, "qft_n29", 50); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	clock.advance(100 * time.Millisecond)
	if _, code, _ := submit(0, 1, "qugan_n39", 50); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	var rej ErrorResponse
	code, hdr := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 0, Circuit: "qft_n29"}, &rej)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" || rej.RetryAfterSeconds <= 0 {
		t.Fatalf("429 without retry hint: header %q, body %+v", hdr.Get("Retry-After"), rej)
	}
	if !strings.Contains(rej.Error, "quota") {
		t.Fatalf("429 error %q does not mention the quota", rej.Error)
	}
	clock.advance(100 * time.Millisecond)
	if _, code, _ := submit(1, 4, "ghz_n127", 80); code != http.StatusAccepted {
		t.Fatalf("tenant 1 submit: %d", code)
	}

	// Poll all jobs to completion under the pacer.
	poll := func(id int) JobResponse {
		var jr JobResponse
		for i := 0; i < 300; i++ {
			code, _ := doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil, &jr)
			if code != http.StatusOK {
				t.Fatalf("poll job %d: %d", id, code)
			}
			if jr.Status == "completed" || jr.Status == "failed" {
				return jr
			}
			clock.advance(2 * time.Second)
		}
		t.Fatalf("job %d never settled: %+v", id, jr)
		return jr
	}
	for i := 0; i < 3; i++ {
		if jr := poll(i); jr.Status != "completed" {
			t.Fatalf("job %d = %+v, want completed", i, jr)
		}
	}

	// Quota freed: tenant 0 may submit again.
	jr4, code, _ := submit(0, 1, "qft_n29", 50)
	if code != http.StatusAccepted {
		t.Fatalf("post-completion submit: %d, want 202", code)
	}
	if got := poll(jr4.ID); got.Status != "completed" {
		t.Fatalf("job %d = %+v, want completed", jr4.ID, got)
	}

	// Stats must match AggregateSLO/AggregateOnline over an offline Run
	// of the identical stream (same arrivals, tenants, deadlines).
	var stats StatsResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Submitted != len(stream) || stats.Settled != len(stream) {
		t.Fatalf("stats counts %+v, want %d submitted and settled", stats, len(stream))
	}
	if stats.Rejected != 1 {
		t.Fatalf("stats rejected = %d, want 1", stats.Rejected)
	}

	jobs := make([]*core.Job, 0, len(stream))
	for _, a := range stream {
		c, err := buildCircuit(SubmitRequest{Circuit: a.circuit})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, &core.Job{
			ID:       a.resp.ID,
			Circuit:  c,
			Arrival:  a.resp.Arrival,
			Tenant:   a.resp.Tenant,
			Priority: a.prio,
			Deadline: a.resp.Deadline,
		})
	}
	ref, err := core.NewLiveController(testControllerConfig(seed, core.WFQMode))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantSLO := metrics.AggregateSLO(core.Outcomes(want))
	if stats.SLO.Attainment.IsNull() || float64(stats.SLO.Attainment) != wantSLO.Attainment {
		t.Fatalf("SLO attainment %v, want %v", stats.SLO.Attainment, wantSLO.Attainment)
	}
	if stats.SLO.Fairness.IsNull() || float64(stats.SLO.Fairness) != wantSLO.Fairness {
		t.Fatalf("SLO fairness %v, want %v", stats.SLO.Fairness, wantSLO.Fairness)
	}
	if len(stats.SLO.PerTenant) != len(wantSLO.PerTenant) {
		t.Fatalf("per-tenant count %d, want %d", len(stats.SLO.PerTenant), len(wantSLO.PerTenant))
	}
	for i, wt := range wantSLO.PerTenant {
		gt := stats.SLO.PerTenant[i]
		if gt.Tenant != wt.Tenant || gt.Completed != wt.Completed || gt.Failed != wt.Failed ||
			float64(gt.MeanJCT) != wt.MeanJCT ||
			float64(gt.Attainment) != wt.Attainment {
			t.Fatalf("tenant %d SLO diverged: got %+v, want %+v", wt.Tenant, gt, wt)
		}
	}
	var jcts, waits []float64
	makespan := 0.0
	for _, r := range want {
		jcts = append(jcts, r.JCT)
		waits = append(waits, r.WaitTime)
		if r.Finished > makespan {
			makespan = r.Finished
		}
	}
	wantOnline := metrics.AggregateOnline(jcts, waits, 0, makespan)
	if stats.Online != wantOnline {
		t.Fatalf("online stats diverged:\ngot  %+v\nwant %+v", stats.Online, wantOnline)
	}
}

// TestServiceRateLimit exercises the token bucket: Burst submissions
// pass, the next is 429 with the refill time, and the bucket refills
// with the wall clock.
func TestServiceRateLimit(t *testing.T) {
	_, ts, clock := newTestServer(t, Config{Rate: 1, Burst: 2}, 3, core.FIFOMode)
	submit := func() (int, http.Header, ErrorResponse) {
		var e ErrorResponse
		var jr json.RawMessage
		code, hdr := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 0, Circuit: "qft_n29"}, &jr)
		if code != http.StatusAccepted {
			_ = json.Unmarshal(jr, &e)
		}
		return code, hdr, e
	}
	for i := 0; i < 2; i++ {
		if code, _, e := submit(); code != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d %+v", i, code, e)
		}
	}
	code, hdr, e := submit()
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", code)
	}
	if e.RetryAfterSeconds <= 0 || e.RetryAfterSeconds > 1 {
		t.Fatalf("retry_after_seconds = %v, want (0, 1]", e.RetryAfterSeconds)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", hdr.Get("Retry-After"))
	}
	// A different tenant has its own bucket.
	var jr JobResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 1, Circuit: "qft_n29"}, &jr); code != http.StatusAccepted {
		t.Fatalf("tenant 1 submit: %d", code)
	}
	// The bucket refills with the wall clock.
	clock.advance(1100 * time.Millisecond)
	if code, _, e := submit(); code != http.StatusAccepted {
		t.Fatalf("post-refill submit: %d %+v", code, e)
	}
}

// TestServiceSubmitValidation locks down the 400 paths.
func TestServiceSubmitValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 5, core.BatchMode)
	cases := []struct {
		name string
		req  SubmitRequest
		want string
	}{
		{"empty", SubmitRequest{}, "set one of"},
		{"both", SubmitRequest{Circuit: "qft_n29", QASM: "OPENQASM 2.0;"}, "not both"},
		{"unknown", SubmitRequest{Circuit: "nope_n1"}, "unknown circuit"},
		{"badqasm", SubmitRequest{QASM: "qreg q[2]; frobnicate q[0];"}, "qasm"},
	}
	for _, tc := range cases {
		var e ErrorResponse
		code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", tc.req, &e)
		if code != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Fatalf("%s: code %d err %q, want 400 containing %q", tc.name, code, e.Error, tc.want)
		}
	}
	var e ErrorResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/abc", nil, &e); code != http.StatusBadRequest {
		t.Fatalf("non-integer id: %d, want 400", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/99", nil, &e); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", code)
	}
}

// TestServiceInlineQASM submits an inline OpenQASM program and runs it
// to completion.
func TestServiceInlineQASM(t *testing.T) {
	_, ts, clock := newTestServer(t, Config{}, 7, core.BatchMode)
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[2];`
	var jr JobResponse
	code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 2, QASM: src}, &jr)
	if code != http.StatusAccepted {
		t.Fatalf("inline qasm submit: %d", code)
	}
	for i := 0; i < 100 && jr.Status != "completed"; i++ {
		clock.advance(time.Second)
		doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, jr.ID), nil, &jr)
	}
	if jr.Status != "completed" {
		t.Fatalf("inline qasm job = %+v, want completed", jr)
	}
}

// TestServiceClusterEndpoint checks the cluster view's accounting.
func TestServiceClusterEndpoint(t *testing.T) {
	_, ts, clock := newTestServer(t, Config{}, 9, core.BatchMode)
	var cr ClusterResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/cluster", nil, &cr); code != http.StatusOK {
		t.Fatal("cluster endpoint failed")
	}
	if cr.Snapshot.Active != 0 || cr.Snapshot.Utilization != 0 || len(cr.QPUs) != 10 {
		t.Fatalf("idle cluster = %+v", cr)
	}
	var jr JobResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Circuit: "ghz_n127"}, &jr); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	clock.advance(50 * time.Millisecond)
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/cluster", nil, &cr); code != http.StatusOK {
		t.Fatal("cluster endpoint failed")
	}
	if cr.Snapshot.Active != 1 {
		t.Fatalf("cluster after submit = %+v, want 1 active", cr.Snapshot)
	}
	if cr.Snapshot.Utilization <= 0 || cr.Snapshot.Utilization > 1 {
		t.Fatalf("utilization %v out of range", cr.Snapshot.Utilization)
	}
	used := 0
	for _, q := range cr.QPUs {
		used += q.UsedComputing
	}
	if want := int(math.Round(cr.Snapshot.Utilization * 200)); used != want {
		t.Fatalf("per-QPU used %d inconsistent with utilization %v (want %d of 200)",
			used, cr.Snapshot.Utilization, want)
	}
}

// TestServiceDrain: draining rejects new submissions with 409 Conflict
// (the typed core.ErrDrained condition), settles the backlog, and
// keeps status/stats readable.
func TestServiceDrain(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, 13, core.FIFOMode)
	var jr JobResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Circuit: "qft_n29"}, &jr); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	results, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Failed {
		t.Fatalf("drain results = %+v", results)
	}
	var e ErrorResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Circuit: "qft_n29"}, &e); code != http.StatusConflict {
		t.Fatalf("post-drain submit: %d, want 409", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/0", nil, &jr); code != http.StatusOK || jr.Status != "completed" {
		t.Fatalf("post-drain status: %d %+v", code, jr)
	}
	var stats StatsResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK || stats.Settled != 1 {
		t.Fatalf("post-drain stats: %d %+v", code, stats)
	}
	if _, err := srv.Drain(); err == nil {
		t.Fatal("second drain should error")
	}
}

// TestServiceConfigValidation locks down New's validation and defaults.
func TestServiceConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil backend should error")
	}
	if _, err := New(Config{TimeScale: 1000, Rate: 2.5, MaxInFlight: 4}); err == nil || !strings.Contains(err.Error(), "Federation") {
		t.Fatalf("no Federation: err %v, want one naming Config.Federation", err)
	}
	f := oneShard(t, testControllerConfig(1, core.BatchMode))
	if _, err := New(Config{Federation: f, TimeScale: -1}); err == nil {
		t.Fatal("negative TimeScale should error")
	}
	srv, err := New(Config{Federation: f, Rate: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.TimeScale != 1000 || srv.cfg.Burst != 3 {
		t.Fatalf("defaults: TimeScale %v Burst %d, want 1000 and ceil(Rate)=3",
			srv.cfg.TimeScale, srv.cfg.Burst)
	}
}

// TestServiceConcurrentRequests hammers the server from parallel
// clients — the mutex around the live controller is the only thing
// between them, so the race lane (go test -race) exercises it for real.
// Uses the real wall clock: interleavings are arbitrary by design.
func TestServiceConcurrentRequests(t *testing.T) {
	f := oneShard(t, testControllerConfig(17, core.WFQMode))
	srv, err := New(Config{Federation: f, TimeScale: 100000, Rate: 1000, Burst: 4, MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for tenant := 0; tenant < 4; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				body, _ := json.Marshal(SubmitRequest{Tenant: tenant, Circuit: "qft_n29", DeadlineSlack: 50})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("tenant %d submit %d: %d", tenant, i, resp.StatusCode)
					return
				}
			}
		}(tenant)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, path := range []string{"/v1/stats", "/v1/cluster", "/v1/jobs/0"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, res := range f.Results() {
		if !f.Status(res.Job.ID).Settled() {
			t.Fatalf("job %d unsettled after drain", res.Job.ID)
		}
	}
}

// TestServiceQuotaDoesNotBurnRateTokens: quota rejections are checked
// before the token bucket, so polling for a free slot cannot exhaust
// the rate budget the eventual accepted submission needs.
func TestServiceQuotaDoesNotBurnRateTokens(t *testing.T) {
	_, ts, clock := newTestServer(t, Config{Rate: 1, Burst: 1, MaxInFlight: 1}, 3, core.FIFOMode)
	submit := func() (int, ErrorResponse) {
		var raw json.RawMessage
		code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 0, Circuit: "qft_n29"}, &raw)
		var e ErrorResponse
		if code != http.StatusAccepted {
			_ = json.Unmarshal(raw, &e)
		}
		return code, e
	}
	if code, e := submit(); code != http.StatusAccepted {
		t.Fatalf("first submit: %d %+v", code, e)
	}
	// Over quota with an empty bucket: the rejection must name the
	// quota, proving the quota check runs before the rate check.
	code, e := submit()
	if code != http.StatusTooManyRequests || !strings.Contains(e.Error, "quota") {
		t.Fatalf("immediate retry: %d %q, want 429 quota", code, e.Error)
	}
	// Retry just before the job settles (its JCT is 2990.9 CX, i.e.
	// wall +2.9909s at timescale 1000): still over quota; must not
	// debit the token the bucket refilled in the meantime.
	clock.advance(2900 * time.Millisecond)
	if code, e := submit(); code != http.StatusTooManyRequests || !strings.Contains(e.Error, "quota") {
		t.Fatalf("pre-settle retry: %d %q, want 429 quota", code, e.Error)
	}
	// 100ms later the job has settled. Only 0.1 tokens refilled since
	// the retry, so if that rejection had burned the token this
	// submission would bounce off the rate limit instead of landing.
	clock.advance(100 * time.Millisecond)
	if code, e := submit(); code != http.StatusAccepted {
		t.Fatalf("post-settle submit: %d %+v (quota rejections burned the rate budget?)", code, e)
	}
}

// panicOncePolicy panics on its first Allocate call and allocates like
// CloudQC's policy afterwards.
type panicOncePolicy struct{ fired atomic.Bool }

func (p *panicOncePolicy) Name() string { return "panic-once" }

func (p *panicOncePolicy) Allocate(reqs []sched.Request, budget []int, rng *rand.Rand) map[sched.NodeKey]int {
	if p.fired.CompareAndSwap(false, true) {
		panic("allocate exploded")
	}
	return sched.CloudQCPolicy{}.Allocate(reqs, budget, rng)
}

// TestHandlerPanicReleasesLock: a panic inside a locked section (here
// the scheduler policy, reached through the pacer's clock advance) must
// not leave the server mutex held. net/http recovers the panic and
// fails that one request; the next request still gets an answer and
// the server still shuts down.
func TestHandlerPanicReleasesLock(t *testing.T) {
	ccfg := testControllerConfig(1, core.FIFOMode)
	ccfg.Policy = &panicOncePolicy{}
	clock := newFakeClock()
	srv, err := New(Config{Federation: oneShard(t, ccfg), Now: clock.now, TimeScale: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack trace
	ts.Start()
	client := &http.Client{Timeout: 2 * time.Second}

	resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"tenant":0,"circuit":"qft_n29"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	clock.advance(time.Second) // the next advance runs the job's first EPR round
	if resp, err := client.Get(ts.URL + "/v1/stats"); err == nil {
		resp.Body.Close()
		t.Fatalf("panicking request answered %d", resp.StatusCode)
	}
	resp, err = client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after the panic: status %d", resp.StatusCode)
	}
	closed := make(chan struct{})
	go func() {
		ts.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("server Close hung after a handler panic")
	}
}

// TestServiceQuotaMessageReportsInFlight: Replay re-admits logged jobs
// without re-checking the quota, so a daemon restarted with a lower
// quota can hold more jobs in flight than it allows. The 429 must then
// report the actual in-flight count, not repeat the quota.
func TestServiceQuotaMessageReportsInFlight(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1}, 3, core.FIFOMode)
	recs := []wal.Record{
		{Type: wal.TypeJob, Tenant: 0, Circuit: "qft_n29"},
		{Type: wal.TypeJob, Tenant: 0, Circuit: "qft_n29"},
	}
	if n, err := srv.Replay(recs); err != nil || n != 2 {
		t.Fatalf("replay: %d jobs, err %v", n, err)
	}
	var e ErrorResponse
	code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Tenant: 0, Circuit: "qft_n29"}, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %q, want 429", code, e.Error)
	}
	if want := "tenant 0 has 2 jobs in flight (quota 1)"; e.Error != want {
		t.Fatalf("429 error %q, want %q", e.Error, want)
	}
}
