package exp

import (
	"fmt"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/metrics"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
	"cloudqc/internal/stats"
	"cloudqc/internal/workload"
)

// Ablations probe the design choices DESIGN.md calls out: the
// imbalance-factor sweep in placement, the batch manager's ordering,
// congestion-aware multipath routing, and purification overhead under
// link-fidelity constraints. Like every experiment in this package,
// independent tasks fan out to the worker pool; the compared
// configurations share RNG streams (see runner.go) so each ablation
// isolates its design knob.

// AblationImbalance compares CloudQC placement restricted to a single
// imbalance factor against the full Algorithm 1 sweep, by communication
// cost on one circuit. X carries the single-α values; the final series
// entry (X = -1) is the full sweep.
func AblationImbalance(o Options, circuitName string) (SweepSeries, error) {
	o = o.withDefaults()
	c, err := qlib.Build(circuitName)
	if err != nil {
		return SweepSeries{}, err
	}
	topo := graph.Random(o.QPUs, o.EdgeProb, o.Seed)
	alphas := place.DefaultConfig().ImbalanceFactors
	configs := make([]place.Config, 0, len(alphas)+1)
	for _, alpha := range alphas {
		cfg := o.placeConfig(o.Seed)
		cfg.ImbalanceFactors = []float64{alpha}
		configs = append(configs, cfg)
	}
	configs = append(configs, o.placeConfig(o.Seed))
	costs, err := runIndexed(o.workers(), len(configs), func(i int) (float64, error) {
		cl := cloud.New(topo, o.Computing, o.Comm)
		pl, err := place.NewCloudQC(configs[i]).Place(cl, c)
		if err != nil {
			if i < len(alphas) {
				return 0, fmt.Errorf("ablation imbalance α=%v: %w", alphas[i], err)
			}
			return 0, err
		}
		return place.CommCost(c, cl, pl.QubitToQPU), nil
	})
	if err != nil {
		return SweepSeries{}, err
	}
	s := SweepSeries{Method: "CloudQC", Y: costs}
	s.X = append(s.X, alphas...)
	s.X = append(s.X, -1) // sentinel: full sweep
	return s, nil
}

// AblationOrderRow is one batch-ordering policy's outcome.
type AblationOrderRow struct {
	Order   string
	MeanJCT float64
	P90JCT  float64
}

// AblationBatchOrder compares the batch manager's ascending-intensity
// order (shortest estimated job first) against FIFO submission order on
// a sampled batch, isolating the ordering decision (same placement,
// same policy, same per-rep job streams).
func AblationBatchOrder(o Options, w workload.Workload, batchSize int) ([]AblationOrderRow, error) {
	o = o.withDefaults()
	if batchSize <= 0 {
		batchSize = 12
	}
	modes := []struct {
		name string
		mode core.Mode
	}{
		{name: "intensity-asc", mode: core.BatchMode},
		{name: "fifo", mode: core.FIFOMode},
	}
	cells, err := runGrid(o, grid{1, 1, len(modes), o.Reps}, func(c cell, b int) (runRep, error) {
		seed := taskSeed(o.Seed, 0, b) // shared across modes: paired batches
		jobs, err := w.Batch(batchSize, seed)
		if err != nil {
			return runRep{}, err
		}
		return runController(core.Config{
			Cloud: o.cloudFor(),
			Model: o.model(),
			Mode:  modes[c.arm].mode,
			Seed:  seed,
		}, jobs)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationOrderRow, len(cells))
	for i, r := range cells {
		rows[i] = AblationOrderRow{
			Order:   modes[r.arm].name,
			MeanJCT: stats.Mean(r.jcts),
			P90JCT:  stats.Percentile(r.jcts, 0.9),
		}
	}
	return rows, nil
}

// AblationMultipath compares single-path scheduling against
// congestion-aware k-path routing on a sparse topology (where alternate
// paths exist and the shortest one bottlenecks). Returns one series per
// k with mean JCT on the given circuit.
func AblationMultipath(o Options, circuitName string, ks []int) (SweepSeries, error) {
	o = o.withDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 3}
	}
	// Sparser topology than the default, and a *scattered* (random)
	// placement: CloudQC placement makes almost every remote gate
	// single-hop, which leaves nothing for routing to improve. The
	// ablation isolates the scheduler, so a placement with real
	// multi-hop gates is the right stress.
	topo := graph.Random(o.QPUs, 0.12, o.Seed)
	cl := cloud.New(topo, o.Computing, o.Comm)
	c, err := qlib.Build(circuitName)
	if err != nil {
		return SweepSeries{}, err
	}
	pl, err := place.NewRandom(o.Seed).Place(cl, c)
	if err != nil {
		return SweepSeries{}, err
	}
	dag := sched.BuildRemoteDAG(c, cl, pl.QubitToQPU, o.model().Latency)
	flat, err := runIndexed(o.workers(), len(ks)*o.Reps, func(i int) (float64, error) {
		ki, rep := i/o.Reps, i%o.Reps
		// Shared across k: every path budget replays the same streams.
		rng := taskRNG(o.Seed, 0, rep)
		res, err := sched.RunMultipath(dag, cl, o.model(), sched.CloudQCPolicy{}, rng, ks[ki])
		if err != nil {
			return 0, err
		}
		return res.JCT, nil
	})
	if err != nil {
		return SweepSeries{}, err
	}
	s := SweepSeries{Method: "CloudQC", Y: meanPerPoint(flat, len(ks), o.Reps)}
	for _, k := range ks {
		s.X = append(s.X, float64(k))
	}
	return s, nil
}

// AblationFidelity sweeps the link fidelity and reports mean JCT with
// purification enforced at the given end-to-end threshold, quantifying
// what EPR quality buys (the paper's future-work extension).
func AblationFidelity(o Options, circuitName string, fidelities []float64, threshold float64) (SweepSeries, error) {
	o = o.withDefaults()
	if len(fidelities) == 0 {
		fidelities = []float64{0.8, 0.85, 0.9, 0.95, 0.99}
	}
	if threshold == 0 {
		threshold = 0.9
	}
	// Scattered placement: multi-hop gates make the end-to-end fidelity
	// decay that purification must repair (CloudQC placement keeps gates
	// single-hop and the ablation would be a no-op at high fidelities).
	topo := graph.Random(o.QPUs, o.EdgeProb, o.Seed)
	cl := cloud.New(topo, o.Computing, o.Comm)
	c, err := qlib.Build(circuitName)
	if err != nil {
		return SweepSeries{}, err
	}
	pl, err := place.NewRandom(o.Seed).Place(cl, c)
	if err != nil {
		return SweepSeries{}, err
	}
	dag := sched.BuildRemoteDAG(c, cl, pl.QubitToQPU, o.model().Latency)
	flat, err := runIndexed(o.workers(), len(fidelities)*o.Reps, func(i int) (float64, error) {
		fi, rep := i/o.Reps, i%o.Reps
		fm := epr.FidelityModel{Model: o.model(), LinkFidelity: fidelities[fi], Threshold: threshold}
		// Shared across fidelities: the sweep isolates purification cost.
		rng := taskRNG(o.Seed, 0, rep)
		res, err := sched.RunFidelity(dag, cl, fm, sched.CloudQCPolicy{}, rng)
		if err != nil {
			return 0, fmt.Errorf("ablation fidelity %v: %w", fidelities[fi], err)
		}
		return res.JCT, nil
	})
	if err != nil {
		return SweepSeries{}, err
	}
	return SweepSeries{Method: "CloudQC", X: fidelities, Y: meanPerPoint(flat, len(fidelities), o.Reps)}, nil
}

// IncomingRow summarizes the incoming-job (sequential arrival) mode at
// one arrival rate.
type IncomingRow struct {
	MeanInterarrival float64
	MeanJCT          float64
	MeanWait         float64
	PeakUtilization  float64
}

// IncomingMode evaluates the paper's sequential-arrival mode: jobs
// arrive as a Poisson process and are placed FIFO; faster arrivals mean
// more queueing and higher utilization. Arrival rates share per-rep
// streams, so each row sees the same job population at different
// spacings.
func IncomingMode(o Options, w workload.Workload, size int, interarrivals []float64) ([]IncomingRow, error) {
	o = o.withDefaults()
	if size <= 0 {
		size = 10
	}
	if len(interarrivals) == 0 {
		interarrivals = []float64{500, 2000, 8000}
	}
	cells, err := runGrid(o, grid{1, len(interarrivals), 1, o.Reps}, func(c cell, rep int) (runRep, error) {
		seed := taskSeed(o.Seed, 0, rep)
		jobs, err := w.PoissonBatch(size, interarrivals[c.x], seed)
		if err != nil {
			return runRep{}, err
		}
		return runController(core.Config{
			Cloud: o.cloudFor(),
			Model: o.model(),
			Mode:  core.FIFOMode,
			Seed:  seed,
			// One sample per 100 time units bounds the recorder's memory.
			Recorder: metrics.NewRecorder(100),
		}, jobs)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]IncomingRow, len(cells))
	for i, r := range cells {
		rows[i] = IncomingRow{
			MeanInterarrival: interarrivals[r.x],
			MeanJCT:          stats.Mean(r.jcts),
			MeanWait:         stats.Mean(r.waits),
			PeakUtilization:  r.peak,
		}
	}
	return rows, nil
}

// RenderIncoming renders incoming-mode rows.
func RenderIncoming(rows []IncomingRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			stats.F(r.MeanInterarrival),
			stats.F(r.MeanJCT),
			stats.F(r.MeanWait),
			fmt.Sprintf("%.2f", r.PeakUtilization),
		})
	}
	return stats.Table([]string{"Interarrival", "MeanJCT", "MeanWait", "PeakUtil"}, out)
}

// RenderAblationOrder renders batch-order ablation rows.
func RenderAblationOrder(rows []AblationOrderRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Order, stats.F(r.MeanJCT), stats.F(r.P90JCT)})
	}
	return stats.Table([]string{"Order", "MeanJCT", "P90JCT"}, out)
}
