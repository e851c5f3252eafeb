package exp

import (
	"fmt"

	"cloudqc/internal/core"
	"cloudqc/internal/metrics"
	"cloudqc/internal/sched"
	"cloudqc/internal/stats"
	"cloudqc/internal/workload"
)

// OnlineRow is one (workload × arrival rate) cell of the online figure:
// job-stream statistics plus time-weighted cloud utilization for a
// stream of incoming jobs at the given mean inter-arrival time.
type OnlineRow struct {
	Workload         string
	MeanInterarrival float64
	Stats            metrics.OnlineStats
	MeanUtilization  float64
}

// Online evaluates the paper's "incoming jobs" setting across the four
// evaluation workloads: jobs arrive over time (arrival process
// "poisson", "uniform", or "bursty"; see workload.Arrivals), the
// admission manager (mode; 0 means batch) admits and places them as
// capacity allows, and each cell reports throughput, JCT percentiles,
// wait time, and mean utilization. Sweeping interarrivals traces JCT
// and utilization vs. arrival rate — faster arrivals mean deeper
// queues, longer waits, higher utilization.
//
// Online streams are tenant-oblivious and deadline-free, so EDFMode
// reduces to FIFO order and WFQMode to batch order here; SLO is the
// figure where those modes differentiate.
//
// Tasks fan out to the experiment worker pool: one point per
// (workload × rate), with arrival rates sharing per-rep streams so each
// column of the figure faces the same job population at different
// spacings.
func Online(o Options, process string, size int, interarrivals []float64, mode core.Mode) ([]OnlineRow, error) {
	o = o.withDefaults()
	if mode == 0 {
		mode = core.BatchMode
	}
	if size == 0 {
		size = 10
	}
	if size < 0 {
		return nil, fmt.Errorf("exp: negative online stream size %d", size)
	}
	if len(interarrivals) == 0 {
		interarrivals = []float64{500, 2000, 8000}
	}
	workloads := workload.All()
	g := grid{len(workloads), len(interarrivals), 1, o.Reps}
	cells, err := runGrid(o, g, func(c cell, rep int) (runRep, error) {
		// Seed by (workload, rep) only: every arrival rate replays the
		// same circuit draws and arrival-gap stream, stretched to its
		// spacing, so the sweep isolates the rate.
		seed := taskSeed(o.Seed, c.w, rep)
		jobs, err := workloads[c.w].Arrivals(process, size, interarrivals[c.x], seed)
		if err != nil {
			return runRep{}, err
		}
		cfg := o.baseConfig(seed)
		cfg.Policy = sched.CloudQCPolicy{}
		cfg.Mode = mode
		cfg.Recorder = metrics.NewRecorder(0)
		r, err := runController(cfg, jobs)
		if err != nil {
			return runRep{}, fmt.Errorf("online %s ia=%v rep %d: %w",
				workloads[c.w].Name, interarrivals[c.x], rep, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]OnlineRow, len(cells))
	for i, r := range cells {
		util := 0.0
		if r.makespan > 0 {
			util = r.utilArea / r.makespan
		}
		rows[i] = OnlineRow{
			Workload:         workloads[r.w].Name,
			MeanInterarrival: interarrivals[r.x],
			// Throughput over the summed makespans: completed jobs per
			// kCX of simulated time across all reps.
			Stats:           r.online(),
			MeanUtilization: util,
		}
	}
	return rows, nil
}

// RenderOnline renders online rows grouped by workload.
func RenderOnline(rows []OnlineRow) string {
	headers := []string{"Workload", "Interarrival", "Done", "Fail",
		"Jobs/kCX", "MeanJCT", "P50JCT", "P99JCT", "MeanWait", "MeanUtil"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Workload,
			stats.F(r.MeanInterarrival),
			fmt.Sprintf("%d", r.Stats.Completed),
			fmt.Sprintf("%d", r.Stats.Failed),
			fmt.Sprintf("%.2f", r.Stats.Throughput),
			stats.F(r.Stats.MeanJCT),
			stats.F(r.Stats.P50JCT),
			stats.F(r.Stats.P99JCT),
			stats.F(r.Stats.MeanWait),
			fmt.Sprintf("%.2f", r.MeanUtilization),
		})
	}
	return stats.Table(headers, out)
}
