package exp

import (
	"fmt"

	"cloudqc/internal/core"
	"cloudqc/internal/place"
	"cloudqc/internal/sched"
	"cloudqc/internal/stats"
	"cloudqc/internal/workload"
)

// MultiTenantMethods lists the three framework variants of Figs. 14-17.
func MultiTenantMethods() []string {
	return []string{"CloudQC", "CloudQC-BFS", "CloudQC-FIFO"}
}

// CDFSeries is one method's job-completion-time CDF.
type CDFSeries struct {
	Method string
	Points []stats.CDFPoint
	// JCTs are the raw per-job completion times the CDF summarizes.
	JCTs []float64
}

// MultiTenantCDF regenerates one of Figs. 14-17: the job completion time
// CDF of CloudQC vs CloudQC-BFS vs CloudQC-FIFO over seeded batches of
// the given workload. batches × batchSize jobs execute per method
// (paper: 50 batches × 20 circuits × 20 topologies; defaults here are
// scaled down but configurable).
func MultiTenantCDF(o Options, w workload.Workload, batches, batchSize int) ([]CDFSeries, error) {
	o = o.withDefaults()
	if batches <= 0 {
		batches = 5
	}
	if batchSize <= 0 {
		batchSize = 20
	}
	methods := MultiTenantMethods()
	// One task per (method × batch). Batch b is repetition b of the
	// experiment: its seed drives workload sampling and controller
	// simulation alike, shared across methods so all three variants face
	// identical job streams (the CDF comparison is paired).
	cells, err := runGrid(o, grid{1, 1, len(methods), batches}, func(c cell, b int) (runRep, error) {
		seed := taskSeed(o.Seed, 0, b)
		jobs, err := w.Batch(batchSize, seed)
		if err != nil {
			return runRep{}, err
		}
		cfg, err := methodConfig(methods[c.arm], o, seed)
		if err != nil {
			return runRep{}, err
		}
		r, err := runController(cfg, jobs)
		if err != nil {
			return runRep{}, fmt.Errorf("multitenant %s batch %d: %w", methods[c.arm], b, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]CDFSeries, len(cells))
	for i, r := range cells {
		out[i] = CDFSeries{Method: methods[r.arm], Points: stats.ECDF(r.jcts), JCTs: r.jcts}
	}
	return out, nil
}

func methodConfig(method string, o Options, seed int64) (core.Config, error) {
	pCfg := o.placeConfig(seed)
	cfg := core.Config{
		Cloud:  o.cloudFor(),
		Policy: sched.CloudQCPolicy{},
		Model:  o.model(),
		Mode:   core.BatchMode,
		Seed:   seed,
	}
	switch method {
	case "CloudQC":
		cfg.Placer = place.NewCloudQC(pCfg)
	case "CloudQC-BFS":
		pCfg.UseBFS = true
		cfg.Placer = place.NewCloudQC(pCfg)
	case "CloudQC-FIFO":
		cfg.Placer = place.NewCloudQC(pCfg)
		cfg.Mode = core.FIFOMode
	default:
		return core.Config{}, fmt.Errorf("exp: unknown multi-tenant method %q", method)
	}
	return cfg, nil
}

// RenderCDF renders CDF series as mean / median / p90 summary rows plus
// selected CDF probes, which is how EXPERIMENTS.md reports Figs. 14-17.
func RenderCDF(series []CDFSeries) string {
	headers := []string{"Method", "Jobs", "MeanJCT", "MedianJCT", "P90JCT", "MaxJCT"}
	var rows [][]string
	for _, s := range series {
		rows = append(rows, []string{
			s.Method,
			fmt.Sprintf("%d", len(s.JCTs)),
			stats.F(stats.Mean(s.JCTs)),
			stats.F(stats.Median(s.JCTs)),
			stats.F(stats.Percentile(s.JCTs, 0.9)),
			stats.F(stats.Max(s.JCTs)),
		})
	}
	return stats.Table(headers, rows)
}
