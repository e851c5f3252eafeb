package exp

import (
	"fmt"

	"cloudqc/internal/core"
	"cloudqc/internal/fault"
	"cloudqc/internal/fed"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/trace"
	"cloudqc/internal/workload"
)

// This file is the run harness every controller-driven figure shares.
// A figure names its grid and, per (cell, rep) task, a job stream and
// a core.Config; runGrid runs the tasks on the worker pool, collects
// each run into a runRep, and merges every cell's reps in rep order,
// so float sums accumulate in the order a sequential loop would.

// cell is one point of a figure's (workload × load × arm) grid.
type cell struct{ w, x, arm int }

// grid sizes a figure's sweep: w workloads × x loads × arm arms, each
// point run reps times. Points enumerate cells with the arm fastest and
// the workload slowest; task i is rep i%reps of point i/reps.
type grid struct{ w, x, arm, reps int }

func (g grid) points() int { return g.w * g.x * g.arm }

func (g grid) cell(pt int) cell {
	return cell{w: pt / (g.x * g.arm), x: pt / g.arm % g.x, arm: pt % g.arm}
}

// runRep is one run's raw outcome, or one cell's reps merged. Fields
// a figure's runs do not produce stay zero.
type runRep struct {
	cell // the grid point, set on merged cells only

	outcomes    []metrics.JobOutcome
	jcts, waits []float64 // completed jobs only
	failed      int
	// makespan is the run's last completion; merged, the sum of the
	// reps' spans, which is the horizon row throughput is measured over.
	makespan float64
	preempt  core.PreemptStats
	faults   fault.Stats
	// utilArea is the recorder's mean utilization × makespan, so merged
	// reps weigh each rep's utilization by its horizon (an unweighted
	// average would let a short rep count as much as a long one); peak
	// is its highest sample.
	utilArea, peak float64
	// attr sums the traced jobs' attribution over tenants.
	attr trace.TenantAttribution
	// hits and misses are the plan-cache counters; router the
	// federation's routing decisions.
	hits, misses float64
	router       fed.RouterStats
}

// collect splits a run's results into completed JCTs and waits, the
// failure count and the makespan.
func collect(results []*core.JobResult) runRep {
	r := runRep{outcomes: core.Outcomes(results)}
	for _, res := range results {
		if res.Failed {
			r.failed++
			continue
		}
		r.jcts = append(r.jcts, res.JCT)
		r.waits = append(r.waits, res.WaitTime)
		if res.Finished > r.makespan {
			r.makespan = res.Finished
		}
	}
	return r
}

// add merges o into r: lists concatenate, counters and spans sum, peak
// keeps the maximum.
func (r *runRep) add(o runRep) {
	r.outcomes = append(r.outcomes, o.outcomes...)
	r.jcts = append(r.jcts, o.jcts...)
	r.waits = append(r.waits, o.waits...)
	r.failed += o.failed
	r.makespan += o.makespan
	r.preempt.Add(o.preempt)
	r.faults.Add(o.faults)
	r.utilArea += o.utilArea
	if o.peak > r.peak {
		r.peak = o.peak
	}
	addAttribution(&r.attr, o.attr)
	r.hits += o.hits
	r.misses += o.misses
	r.router.AffinityHits += o.router.AffinityHits
	r.router.Spills += o.router.Spills
	r.router.Cold += o.router.Cold
	r.router.Random += o.router.Random
}

func addAttribution(dst *trace.TenantAttribution, a trace.TenantAttribution) {
	dst.Completed += a.Completed
	dst.Failed += a.Failed
	dst.JCT += a.JCT
	dst.Queue += a.Queue
	dst.Compile += a.Compile
	dst.Local += a.Local
	dst.Network += a.Network
	dst.Suspended += a.Suspended
}

// online aggregates the job-stream statistics.
func (r runRep) online() metrics.OnlineStats {
	return metrics.AggregateOnline(r.jcts, r.waits, r.failed, r.makespan)
}

// runGrid runs task once per (cell × rep) of g on the worker pool and
// returns one merged runRep per cell, in grid order.
func runGrid(o Options, g grid, task func(c cell, rep int) (runRep, error)) ([]runRep, error) {
	reps, err := runIndexed(o.workers(), g.points()*g.reps, func(i int) (runRep, error) {
		return task(g.cell(i/g.reps), i%g.reps)
	})
	if err != nil {
		return nil, err
	}
	cells := make([]runRep, g.points())
	for pt := range cells {
		cells[pt].cell = g.cell(pt)
		for _, r := range reps[pt*g.reps : (pt+1)*g.reps] {
			cells[pt].add(r)
		}
	}
	return cells, nil
}

// baseConfig is the controller config the multi-tenant figures start
// from: the options' cloud and EPR model, and a CloudQC placer seeded
// like the run.
func (o Options) baseConfig(seed int64) core.Config {
	return core.Config{Cloud: o.cloudFor(), Placer: place.NewCloudQC(o.placeConfig(seed)), Model: o.model(), Seed: seed}
}

// runController runs jobs through a fresh controller built from cfg and
// collects the run with its preemption and fault counters, its
// recorder's utilization when cfg.Recorder is set, and its traced
// attribution when cfg.Trace is set.
func runController(cfg core.Config, jobs []*core.Job) (runRep, error) {
	ct, err := core.NewLiveController(cfg)
	if err != nil {
		return runRep{}, err
	}
	results, err := ct.Run(jobs)
	if err != nil {
		return runRep{}, err
	}
	r := collect(results)
	r.preempt, r.faults = ct.PreemptStats(), ct.FaultStats()
	if rec := cfg.Recorder; rec != nil {
		r.utilArea = rec.MeanUtilization() * r.makespan
		r.peak = rec.PeakUtilization()
	}
	if cfg.Trace != nil {
		for _, ta := range cfg.Trace.Tenants() {
			addAttribution(&r.attr, ta)
		}
	}
	return r, nil
}

// tenantStreamSize resolves a tenant figure's per-tenant stream size:
// 0 means the default of 4 jobs per tenant.
func tenantStreamSize(perTenant int) (int, error) {
	if perTenant < 0 {
		return 0, fmt.Errorf("exp: negative per-tenant stream size %d", perTenant)
	}
	if perTenant == 0 {
		return 4, nil
	}
	return perTenant, nil
}

// runTenants runs the three-tenant deadline mix (weights 1/2/4, see
// workload.DefaultTenantMix) over workloads × interarrivals × arms,
// with config applying cell c's arm to the base config. A task's seed
// depends on (workload, rep) only, so every load and every arm replays
// identical tenant mixes and a cell difference isolates the load or the
// arm, never the draw.
func runTenants(o Options, workloads []workload.Workload, process string, perTenant int,
	interarrivals []float64, arms int, config func(c cell, cfg *core.Config)) ([]runRep, error) {
	g := grid{len(workloads), len(interarrivals), arms, o.Reps}
	return runGrid(o, g, func(c cell, rep int) (runRep, error) {
		seed := taskSeed(o.Seed, c.w, rep)
		mix := workload.DefaultTenantMix(workloads[c.w], perTenant, process, interarrivals[c.x])
		jobs, err := workload.MultiTenant(mix, seed)
		if err != nil {
			return runRep{}, err
		}
		cfg := o.baseConfig(seed)
		config(c, &cfg)
		r, err := runController(cfg, jobs)
		if err != nil {
			return runRep{}, fmt.Errorf("%s ia=%v arm %d rep %d: %w",
				workloads[c.w].Name, interarrivals[c.x], c.arm, rep, err)
		}
		return r, nil
	})
}
