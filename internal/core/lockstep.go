package core

import (
	"fmt"
	"math"

	"cloudqc/internal/metrics"
	"cloudqc/internal/sched"
)

// RunLockStep is the original round-per-iteration controller loop, kept
// as the reference implementation for the event-driven Run: on batch
// workloads the two produce bit-identical JobResults (the equivalence
// tests and BenchmarkClusterOnline rely on this). It advances the clock
// by one EPRAttempt slot per iteration whenever any job is active — even
// when every active job is stalled on local gate tails — so sparse
// workloads burn O(horizon/EPRAttempt) empty rounds that Run skips.
//
// New code should call Run; RunLockStep exists for differential testing
// and benchmarking only.
func (ct *Controller) RunLockStep(jobs []*Job) ([]*JobResult, error) {
	results := make(map[int]*JobResult, len(jobs))
	totalComputing := ct.resetScheduling(len(jobs))
	for _, j := range jobs {
		if err := validateJob(j, results); err != nil {
			return nil, err
		}
	}
	queue := append([]*Job(nil), jobs...)

	var active []*activeJob
	var releases []release

	t := 0.0
	capacityChanged := true
	budget := make([]int, ct.cfg.Cloud.NumQPUs())

	for len(queue) > 0 || len(active) > 0 {
		ct.stats.Rounds++
		// Apply matured releases.
		kept := releases[:0]
		for _, r := range releases {
			if r.at <= t {
				r.placement.Release(ct.cfg.Cloud)
				capacityChanged = true
			} else {
				kept = append(kept, r)
			}
		}
		releases = kept

		// Admission: try placing waiting, arrived jobs.
		if capacityChanged {
			var err error
			queue, active, err = ct.admit(queue, active, results, t, totalComputing, nil)
			if err != nil {
				for _, aj := range active {
					aj.placement.Release(ct.cfg.Cloud)
				}
				for _, r := range releases {
					r.placement.Release(ct.cfg.Cloud)
				}
				return nil, err
			}
			capacityChanged = false
		}

		if ct.cfg.Recorder != nil {
			// Queued counts arrived-but-unplaced jobs only: this queue
			// still holds jobs with Arrival > t, and reporting them
			// over-states queue depth on online runs.
			queued := 0
			for _, j := range queue {
				if j.Arrival <= t {
					queued++
				}
			}
			ct.cfg.Recorder.Record(metrics.Sample{
				Time:        t,
				Utilization: ct.cfg.Cloud.Utilization(),
				Active:      len(active),
				Queued:      queued,
			})
		}

		// One shared EPR round across every active job.
		reqs, readyByJob := collectRequests(active, t)
		if len(reqs) > 0 {
			for i := range budget {
				budget[i] = ct.cfg.Cloud.QPU(i).Comm
			}
			alloc := ct.cfg.Policy.Allocate(reqs, budget, ct.rng)
			for idx, aj := range active {
				for _, u := range readyByJob[idx] {
					aj.state.Attempt(u, alloc[sched.NodeKey{Job: idx, Node: u}], t, ct.cfg.Model, ct.rng)
				}
			}
		}

		// Retire completed jobs.
		remaining := active[:0]
		for _, aj := range active {
			if !aj.state.Done() {
				remaining = append(remaining, aj)
				continue
			}
			finished := aj.state.JCT()
			res := results[aj.job.ID]
			res.PlacedAt = aj.placedAt
			res.Finished = finished
			res.JCT = finished - aj.job.Arrival
			res.WaitTime = aj.placedAt - aj.job.Arrival
			releases = append(releases, release{at: finished, placement: aj.placement})
		}
		active = remaining

		if len(queue) == 0 && len(active) == 0 {
			break
		}

		// Advance the clock: to the next round if anything is running,
		// otherwise jump to the next enabling event (arrival or release).
		next := t + ct.cfg.Model.EPRAttempt
		if len(active) == 0 {
			next = math.Inf(1)
			for _, j := range queue {
				if j.Arrival > t && j.Arrival < next {
					next = j.Arrival
				}
			}
			for _, r := range releases {
				if r.at > t && r.at < next {
					next = r.at
				}
			}
			if math.IsInf(next, 1) {
				// Waiting jobs, nothing running, nothing to release:
				// capacity will never change again.
				return nil, fmt.Errorf("core: %d jobs unplaceable with all resources free", len(queue))
			}
			capacityChanged = true
		}
		t = next
	}

	// Final releases restore the cloud.
	for _, r := range releases {
		r.placement.Release(ct.cfg.Cloud)
	}

	out := make([]*JobResult, 0, len(results))
	for _, j := range jobs {
		out = append(out, results[j.ID])
	}
	return out, nil
}
