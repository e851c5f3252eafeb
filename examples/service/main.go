// Streaming job-submission service, in process: a 1-shard Federation
// served by the HTTP JSON JobService, driven through an httptest
// server — submit jobs for two tenants, step virtual time by polling,
// read /v1/stats, and drain.
//
// The same flow runs against the standalone daemon:
//
//	go build ./cmd/cloudqcd && ./cloudqcd -addr :8080 -mode wfq
//	curl -s localhost:8080/v1/jobs -d '{"tenant":1,"circuit":"qft_n29"}'
//
// Run with: go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"cloudqc"
)

func main() {
	// A 1-shard federation over the paper's default cloud, WFQ
	// admission — bit-identical to a lone live controller.
	f, err := cloudqc.NewFederation(cloudqc.FederationConfig{
		Shard:  cloudqc.ClusterConfig{Mode: cloudqc.WFQMode, Seed: 42},
		Clouds: []*cloudqc.Cloud{cloudqc.NewRandomCloud(20, 0.3, 20, 5, 42)},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The service normally paces virtual time off the wall clock
	// (TimeScale CX units per wall second). The clock is injectable, so
	// this demo drives it by hand: each step(d) advances the service's
	// notion of "now", and the next request steps the federation to the
	// matching virtual time — deterministic, no sleeps.
	clock := time.Unix(0, 0)
	step := func(d time.Duration) { clock = clock.Add(d) }
	svc, err := cloudqc.NewJobService(cloudqc.ServiceConfig{
		Federation:  f,
		TimeScale:   1000, // 1000 CX per (virtual) wall second
		MaxInFlight: 2,
		Now:         func() time.Time { return clock },
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	submit := func(tenant, priority int, circuit string) int {
		body, _ := json.Marshal(map[string]any{
			"tenant": tenant, "priority": priority,
			"circuit": circuit, "deadline_slack": 50,
		})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var jr struct {
			ID      int     `json:"id"`
			Status  string  `json:"status"`
			Arrival float64 `json:"arrival"`
			Error   string  `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			fmt.Printf("tenant %d: rejected %d (%s)\n", tenant, resp.StatusCode, jr.Error)
			return -1
		}
		fmt.Printf("tenant %d: job %d accepted (%s) at virtual t=%.0f CX\n",
			tenant, jr.ID, circuit, jr.Arrival)
		return jr.ID
	}

	// Two tenants submit a small mixed stream; tenant 2 carries twice
	// the weight. With both of tenant 1's jobs still in flight, its
	// third submission trips the in-flight quota: 429 with a retry hint.
	ids := []int{
		submit(1, 1, "qft_n29"),
		submit(1, 1, "qugan_n39"),
		submit(2, 2, "ghz_n127"),
	}
	submit(1, 1, "qft_n29") // quota: rejected 429

	// Step virtual time and poll to completion — every request advances
	// the controller to the injected clock's virtual instant.
	for _, id := range ids {
		for {
			step(time.Second) // +1000 CX of virtual time
			resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
			if err != nil {
				log.Fatal(err)
			}
			var jr struct {
				Status string  `json:"status"`
				JCT    float64 `json:"jct"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			if jr.Status == "completed" || jr.Status == "failed" {
				fmt.Printf("job %d: %s, JCT %.0f CX\n", id, jr.Status, jr.JCT)
				break
			}
		}
	}

	// Stream aggregates: per-tenant SLO over everything settled so far.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Settled  int `json:"settled"`
		Rejected int `json:"rejected"`
		Online   struct {
			MeanJCT    float64 `json:"MeanJCT"`
			Throughput float64 `json:"Throughput"`
		} `json:"online"`
		SLO struct {
			Attainment *float64 `json:"attainment"`
			PerTenant  []struct {
				Tenant     int      `json:"tenant"`
				Completed  int      `json:"completed"`
				Attainment *float64 `json:"attainment"`
			} `json:"per_tenant"`
		} `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: %d settled, %d rejected, mean JCT %.0f CX, throughput %.2f jobs/kCX\n",
		stats.Settled, stats.Rejected, stats.Online.MeanJCT, stats.Online.Throughput)
	for _, t := range stats.SLO.PerTenant {
		att := "-"
		if t.Attainment != nil {
			att = fmt.Sprintf("%.0f%%", *t.Attainment*100)
		}
		fmt.Printf("  tenant %d: %d completed, SLO attainment %s\n", t.Tenant, t.Completed, att)
	}

	// Graceful shutdown: drain the backlog.
	if _, err := svc.Drain(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained")
}
