package service

import (
	"testing"
	"time"

	"cloudqc/internal/core"
)

// TestStatsReportsPlanCache: repeated submissions of one template drive
// plan-cache hits, and GET /v1/stats surfaces the counters.
func TestStatsReportsPlanCache(t *testing.T) {
	_, ts, clock := newTestServer(t, Config{}, 21, core.FIFOMode)

	for i := 0; i < 3; i++ {
		var resp JobResponse
		code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", SubmitRequest{Circuit: "qft_n29"}, &resp)
		if code != 202 {
			t.Fatalf("submit %d: code %d", i, code)
		}
		// Run each job to completion before the next submission, so the
		// cloud returns to the identical all-free state and the next
		// admit hits the cache.
		clock.advance(time.Hour)
		var stats StatsResponse
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != 200 {
			t.Fatalf("stats code %d", code)
		}
		if stats.Settled != i+1 {
			t.Fatalf("after job %d: settled %d", i, stats.Settled)
		}
	}

	var stats StatsResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != 200 {
		t.Fatalf("stats code %d", code)
	}
	pc := stats.PlanCache
	if !pc.Enabled {
		t.Fatalf("plan cache not enabled by default: %+v", pc)
	}
	if pc.Misses < 1 || pc.Hits < 2 {
		t.Fatalf("repeated template did not hit: %+v", pc)
	}
	if pc.Size < 1 {
		t.Fatalf("cache reports empty after inserts: %+v", pc)
	}
}
