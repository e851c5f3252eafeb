// Package metrics instruments multi-tenant runs: time series of cloud
// utilization, active and queued jobs, sampled every scheduling round,
// plus the aggregate job-stream statistics (throughput, JCT percentiles,
// wait times) the online "incoming jobs" mode reports. The paper's
// design objective 3 is "minimizing job completion time and maximizing
// quantum resource utilization"; this package measures both halves.
package metrics

import (
	"cloudqc/internal/stats"
)

// Sample is one instant of cluster state.
type Sample struct {
	// Time is the simulation clock in CX units.
	Time float64
	// Utilization is the fraction of computing qubits reserved, [0, 1].
	Utilization float64
	// Active is the number of jobs currently executing.
	Active int
	// Queued is the number of jobs waiting for placement.
	Queued int
}

// Recorder accumulates samples. The zero value records every call;
// construct with NewRecorder to thin samples to a minimum spacing.
type Recorder struct {
	every   float64
	last    float64
	started bool
	samples []Sample
}

// NewRecorder returns a recorder keeping at most one sample per `every`
// time units (0 keeps everything).
func NewRecorder(every float64) *Recorder {
	return &Recorder{every: every}
}

// Record appends a sample unless it is closer than `every` to the
// previous one.
func (r *Recorder) Record(s Sample) {
	if r.started && r.every > 0 && s.Time-r.last < r.every {
		return
	}
	r.samples = append(r.samples, s)
	r.last = s.Time
	r.started = true
}

// Flush appends a closing sample unconditionally, bypassing thinning —
// call it at end of run so the series covers the full horizon even when
// the final state change landed inside the thinning window and would
// have been dropped. A flush at the same instant as the last kept sample
// replaces it instead of recording a zero-width duplicate.
func (r *Recorder) Flush(s Sample) {
	if n := len(r.samples); n > 0 && r.samples[n-1].Time == s.Time {
		r.samples[n-1] = s
		return
	}
	r.samples = append(r.samples, s)
	r.last = s.Time
	r.started = true
}

// Samples returns the recorded series in time order.
func (r *Recorder) Samples() []Sample { return r.samples }

// PeakUtilization returns the highest recorded utilization (0 when
// empty).
func (r *Recorder) PeakUtilization() float64 {
	peak := 0.0
	for _, s := range r.samples {
		if s.Utilization > peak {
			peak = s.Utilization
		}
	}
	return peak
}

// MeanUtilization returns the time-weighted mean utilization across the
// recorded horizon under sample-and-hold semantics: each sample's value
// holds until the next sample. The final sample closes the horizon, so
// record one at end of run (see Flush) for full coverage. A series whose
// samples all share one instant never changed state, so its (last)
// utilization is returned rather than 0 — the left-Riemann sum used to
// stop at the second-to-last sample and drop that contribution entirely.
func (r *Recorder) MeanUtilization() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.MeanUtilizationUntil(r.samples[len(r.samples)-1].Time)
}

// MeanUtilizationUntil is MeanUtilization with the horizon extended to
// `end`: the final sample's utilization holds from its own time to end,
// the contribution MeanUtilization cannot see because the recorder does
// not know when the run finished. Ends before the last sample are
// clamped to it.
func (r *Recorder) MeanUtilizationUntil(end float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	var area, span float64
	for i := 1; i < len(r.samples); i++ {
		dt := r.samples[i].Time - r.samples[i-1].Time
		area += float64(r.samples[i-1].Utilization * dt)
		span += dt
	}
	last := r.samples[len(r.samples)-1]
	if end > last.Time {
		area += float64(last.Utilization * (end - last.Time))
		span += end - last.Time
	}
	if span == 0 {
		return last.Utilization
	}
	return area / span
}

// OnlineStats aggregates per-job outcomes of one online ("incoming
// jobs") run into the figures the paper's multi-tenant evaluation
// reports: throughput, completion-time percentiles, and queueing delay.
type OnlineStats struct {
	// Completed and Failed count jobs that finished vs. jobs that could
	// never be placed.
	Completed, Failed int
	// MeanJCT, P50JCT and P99JCT summarize completed jobs' completion
	// times (arrival to finish, queueing included), in CX units.
	MeanJCT, P50JCT, P99JCT float64
	// MeanWait is the average time from arrival to placement.
	MeanWait float64
	// Makespan is the horizon Throughput is measured over: the span from
	// time 0 (the start of the arrival process) to the last completion —
	// or, in rows aggregating several repetitions, the sum of those
	// spans.
	Makespan float64
	// Throughput is completed jobs per 1000 CX units of makespan.
	Throughput float64
}

// AggregateOnline computes OnlineStats from completed jobs' JCTs and
// wait times, the failed-job count, and the run's makespan.
func AggregateOnline(jcts, waits []float64, failed int, makespan float64) OnlineStats {
	s := OnlineStats{
		Completed: len(jcts),
		Failed:    failed,
		Makespan:  makespan,
	}
	if len(jcts) > 0 {
		s.MeanJCT = stats.Mean(jcts)
		s.P50JCT = stats.Percentile(jcts, 0.5)
		s.P99JCT = stats.Percentile(jcts, 0.99)
	}
	if len(waits) > 0 {
		s.MeanWait = stats.Mean(waits)
	}
	if makespan > 0 {
		s.Throughput = float64(s.Completed) / makespan * 1000
	}
	return s
}
