package sched

import (
	"math"
	"math/rand"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/qlib"
)

// refNextEnableTime is NextEnableTime before it stopped at the first
// node ready by t: a full scan of the runnable set, each readyAt
// clamped to t.
func refNextEnableTime(s *JobState, t float64) (float64, bool) {
	next := math.Inf(1)
	for _, i := range s.runnable {
		if s.hopsLeft[i] == 0 {
			continue
		}
		next = math.Min(next, math.Max(s.readyAt[i], t))
	}
	return next, !math.IsInf(next, 1)
}

// TestNextEnableTimeMatchesFullScan compares the early-exit scan with
// the full scan on mid-run JobStates: three circuits on an 8-QPU ring,
// driven by seeded rounds at EPR success 0.3 with random grants and
// random clock jumps. The probe times include t itself, a node's
// readyAt exactly (the boundary where the scan stops), instants just
// before and after one, and +Inf.
func TestNextEnableTimeMatchesFullScan(t *testing.T) {
	cl := cloud.New(graph.Ring(8), 20, 3)
	m := epr.DefaultModel()
	m.SuccessProb = 0.3
	for _, name := range []string{"ising_n34", "knn_n67", "qugan_n71"} {
		c := qlib.MustBuild(name)
		assign := make([]int, c.NumQubits())
		for q := range assign {
			assign[q] = q * 3 % cl.NumQPUs()
		}
		d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewJobState(d, float64(rng.Intn(50)))
			tNow, checks := 0.0, 0
			var ready []int
			for !s.Done() {
				probes := []float64{tNow, tNow + 0.5, tNow + float64(rng.Intn(400)), math.Inf(1)}
				for _, i := range s.runnable {
					if ra := s.readyAt[i]; rng.Intn(4) == 0 {
						probes = append(probes, ra, math.Nextafter(ra, math.Inf(-1)), math.Nextafter(ra, math.Inf(1)))
					}
				}
				for _, p := range probes {
					got, gotOK := s.NextEnableTime(p)
					want, wantOK := refNextEnableTime(s, p)
					if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
						t.Fatalf("%s seed %d at %v: NextEnableTime(%v) = %v, %v; full scan %v, %v",
							name, seed, tNow, p, got, gotOK, want, wantOK)
					}
					checks++
				}
				ready = s.AppendReady(ready[:0], tNow)
				if len(ready) == 0 {
					tNow, _ = refNextEnableTime(s, tNow)
					continue
				}
				for _, u := range ready {
					pairs := rng.Intn(4)
					s.Attempt(u, pairs, m.RoundSuccess(pairs), tNow, m, rng, nil)
				}
				tNow += m.EPRAttempt * float64(1+rng.Intn(3))
			}
			if checks == 0 {
				t.Fatalf("%s seed %d: no probes", name, seed)
			}
		}
	}
}
