package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/service"
)

func TestBuildBadFlags(t *testing.T) {
	cases := [][]string{
		{"-mode", "nope"},
		{"-epr-prob", "0"},   // Model.Validate rejects SuccessProb outside (0, 1]
		{"-epr-prob", "2"},   // ditto
		{"-epr-prob", "NaN"}, // ditto: NaN fails every comparison
		{"-timescale", "-5"},
		{"-unknown-flag"},
		{"-shards", "0"},
		{"-routing", "nope"},
	}
	for _, args := range cases {
		if _, err := build(args); err == nil {
			t.Fatalf("build(%v) should error", args)
		}
	}
}

// TestDaemonFlagsReachService wires the daemon's flags through an
// httptest round trip: a 1-job quota rejects the second submission and
// the cluster view reflects the -qpus flag.
func TestDaemonFlagsReachService(t *testing.T) {
	d, err := build([]string{"-addr", ":0", "-qpus", "8", "-quota", "1", "-mode", "wfq"})
	if err != nil {
		t.Fatal(err)
	}
	if d.addr != ":0" {
		t.Fatalf("addr = %q", d.addr)
	}
	ts := httptest.NewServer(d.svc)
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	code, body := post(`{"tenant": 3, "circuit": "qft_n29"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	code, body = post(`{"tenant": 3, "circuit": "qft_n29"}`)
	if code != http.StatusTooManyRequests || !strings.Contains(body, "quota") {
		t.Fatalf("over-quota submit: %d %s, want 429 mentioning quota", code, body)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr service.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.QPUs) != 8 {
		t.Fatalf("cluster has %d QPUs, want 8 (flag -qpus)", len(cr.QPUs))
	}

	// -plancache sizes the controller template's cache: a positive
	// value is the LRU capacity, a negative one disables caching.
	for _, tc := range []struct {
		flag     string
		enabled  bool
		capacity int
	}{{"3", true, 3}, {"-1", false, 0}} {
		d, err := build([]string{"-addr", ":0", "-qpus", "8", "-plancache", tc.flag})
		if err != nil {
			t.Fatal(err)
		}
		rw := httptest.NewRecorder()
		d.svc.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/stats", nil))
		var stats service.StatsResponse
		if err := json.NewDecoder(rw.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if pc := stats.PlanCache; pc.Enabled != tc.enabled || pc.Capacity != tc.capacity {
			t.Fatalf("-plancache %s: /v1/stats plan_cache %+v, want enabled %v capacity %d",
				tc.flag, pc, tc.enabled, tc.capacity)
		}
	}
}

// TestDaemonShardsFlag boots a 3-shard daemon and checks the federated
// wire views: /v1/stats names the routing and breaks stats down per
// shard; /v1/cluster concatenates every shard's QPUs.
func TestDaemonShardsFlag(t *testing.T) {
	d, err := build([]string{"-addr", ":0", "-qpus", "6", "-shards", "3", "-routing", "affinity", "-spill", "2", "-mode", "wfq"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.svc)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"tenant": 1, "circuit": "qft_n29"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats service.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fw := stats.Federation
	if fw.Shards != 3 || fw.Routing != "affinity" || len(fw.PerShard) != 3 {
		t.Fatalf("federation view = %+v, want 3 affinity shards", fw)
	}
	if routed := fw.Router.AffinityHits + fw.Router.Spills + fw.Router.Cold; routed != 3 {
		t.Fatalf("router counters %+v account for %d jobs, want 3", fw.Router, routed)
	}

	resp, err = http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cr service.ClusterResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Shards) != 3 || len(cr.QPUs) != 18 {
		t.Fatalf("cluster has %d shards and %d QPUs, want 3 and 18 (flags -shards, -qpus)",
			len(cr.Shards), len(cr.QPUs))
	}
}

// TestEPRProbReachesPlacer: -epr-prob sets the success probability the
// placer scores remote latency with, not only the controller's. On the
// empty default cloud qft_n160 places differently at p = 0.9 than at
// the default 0.3, so the daemon's placement shows which one it used.
func TestEPRProbReachesPlacer(t *testing.T) {
	d, err := build([]string{"-addr", ":0", "-epr-prob", "0.9"})
	if err != nil {
		t.Fatal(err)
	}
	rw := httptest.NewRecorder()
	d.svc.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"tenant": 1, "circuit": "qft_n160"}`)))
	if rw.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rw.Code, rw.Body)
	}
	results, err := d.svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Placement == nil {
		t.Fatalf("drain returned %d results, want one placed job", len(results))
	}
	got := results[0].Placement.QubitToQPU

	circ := qlib.MustBuild("qft_n160")
	placeAt := func(p float64) []int {
		cfg := place.DefaultConfig()
		cfg.Model.SuccessProb = p
		pl, err := place.NewCloudQC(cfg).Place(cloud.NewRandom(20, 0.3, 20, 5, 1), circ)
		if err != nil {
			t.Fatal(err)
		}
		return pl.QubitToQPU
	}
	want, atDefault := placeAt(0.9), placeAt(0.3)
	if slices.Equal(want, atDefault) {
		t.Fatal("qft_n160 places the same at p = 0.9 and 0.3: the test cannot tell them apart")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("daemon placed qft_n160 as %v, want the p = 0.9 placement %v", got, want)
	}
}

func TestPrintSummary(t *testing.T) {
	c := core.Job{ID: 0, Tenant: 1, Deadline: 100}
	results := []*core.JobResult{
		{Job: &c, JCT: 80, Finished: 80, WaitTime: 5},
		{Job: &core.Job{ID: 1, Tenant: 2}, Failed: true},
	}
	var buf bytes.Buffer
	printSummary(&buf, results)
	out := buf.String()
	for _, want := range []string{"drained 2 jobs (1 failed)", "tenant 1", "attainment 100%", "tenant 2", "attainment -"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
