package loadgen

import (
	"net/http/httptest"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/service"
)

// TestLoadgenSmall drives a modest stream through a real HTTP server
// and checks the report adds up: everything accepted (no limits
// configured), everything settled, latencies measured. The huge
// timescale makes virtual time effectively free so the backlog drains
// as fast as the wall clock polls.
func TestLoadgenSmall(t *testing.T) {
	f, err := fed.New(fed.Config{
		Shard:  core.Config{Mode: core.FIFOMode, Seed: 1},
		Clouds: []*cloud.Cloud{cloud.NewRandom(10, 0.3, 20, 5, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Federation: f, TimeScale: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rep, err := Run(Config{BaseURL: ts.URL, Jobs: 500, Workers: 4, Tenants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 500 || rep.Accepted != 500 || rep.Rejected != 0 || rep.Shed != 0 || rep.Other != 0 {
		t.Fatalf("report %+v: want 500 submitted and accepted", rep)
	}
	if rep.Settled < rep.Accepted {
		t.Fatalf("settled %d < accepted %d", rep.Settled, rep.Accepted)
	}
	if rep.SubmitP50 <= 0 || rep.SubmitP99 < rep.SubmitP50 {
		t.Fatalf("latencies p50=%v p99=%v", rep.SubmitP50, rep.SubmitP99)
	}
	if rep.JobsPerSec <= 0 {
		t.Fatalf("jobs/sec %v", rep.JobsPerSec)
	}
}

func TestLoadgenBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing BaseURL should error")
	}
	if _, err := Run(Config{BaseURL: "http://127.0.0.1:0", Jobs: 0}); err == nil {
		t.Fatal("zero Jobs should error")
	}
}
