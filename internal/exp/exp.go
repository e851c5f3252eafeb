// Package exp regenerates every table and figure of the paper's
// evaluation (Sec. VI). Each experiment returns structured data plus a
// renderer producing the aligned text tables that EXPERIMENTS.md and the
// cloudqc CLI print.
//
// Experiments decompose into independent (sweep point × repetition)
// simulation tasks that run on a bounded worker pool (see runner.go).
// Options.Workers bounds the pool; every task seeds its own RNG from
// (Options.Seed, point index, rep), so for a fixed Seed the output is
// bit-identical at any worker count — Workers: 1 reproduces a plain
// sequential loop.
//
// Defaults follow the paper: 20 QPUs, random topology with edge
// probability 0.3, 20 computing and 5 communication qubits per QPU, EPR
// success probability 0.3, Table I latencies.
package exp

import (
	"fmt"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/place"
	"cloudqc/internal/stats"
)

// Options are the shared experiment knobs.
type Options struct {
	// QPUs is the cloud size (default 20).
	QPUs int
	// EdgeProb is the random-topology edge probability (default 0.3).
	EdgeProb float64
	// Computing and Comm are per-QPU qubit counts (defaults 20 and 5).
	Computing, Comm int
	// EPRProb is the per-attempt EPR success probability (default 0.3).
	EPRProb float64
	// Seed drives topology generation and simulation sampling.
	Seed int64
	// Reps averages stochastic simulations over this many runs
	// (default 3).
	Reps int
	// Workers bounds the experiment worker pool. 0 (the zero value)
	// means one worker per available CPU; 1 runs tasks sequentially.
	// Results are identical for any value — only wall-clock changes.
	Workers int
}

// Defaults returns the paper's evaluation setting.
func Defaults() Options {
	return Options{QPUs: 20, EdgeProb: 0.3, Computing: 20, Comm: 5, EPRProb: 0.3, Seed: 1, Reps: 3}
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if o.QPUs == 0 {
		o.QPUs = d.QPUs
	}
	if o.EdgeProb == 0 {
		o.EdgeProb = d.EdgeProb
	}
	if o.Computing == 0 {
		o.Computing = d.Computing
	}
	if o.Comm == 0 {
		o.Comm = d.Comm
	}
	if o.EPRProb == 0 {
		o.EPRProb = d.EPRProb
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Reps <= 0 {
		o.Reps = d.Reps
	}
	return o
}

// cloudFor builds the experiment cloud for these options.
func (o Options) cloudFor() *cloud.Cloud {
	return cloud.New(graph.Random(o.QPUs, o.EdgeProb, o.Seed), o.Computing, o.Comm)
}

// model returns the EPR model for these options.
func (o Options) model() epr.Model {
	m := epr.DefaultModel()
	m.SuccessProb = o.EPRProb
	return m
}

// placeConfig returns the default CloudQC placer configuration, seeded,
// scoring remote latency with the options' EPR model.
func (o Options) placeConfig(seed int64) place.Config {
	cfg := place.DefaultConfig()
	cfg.Seed = seed
	cfg.Model = o.model()
	return cfg
}

// TableI renders the operation latency table (paper Table I).
func TableI() string {
	l := epr.DefaultLatency()
	rows := [][]string{
		{"Single-qubit gates", fmt.Sprintf("%.1f CX", l.OneQubit)},
		{"CX and CZ gates", fmt.Sprintf("%.0f CX", l.TwoQubit)},
		{"Measure", fmt.Sprintf("%.0f CX", l.Measure)},
		{"EPR preparation", fmt.Sprintf("%.0f CX", l.EPRAttempt)},
	}
	return stats.Table([]string{"Operation", "Latency"}, rows)
}

// SweepSeries is one method's line in a sweep figure: Y[i] is the metric
// at X[i].
type SweepSeries struct {
	Method string
	X, Y   []float64
}

// RenderSweep renders sweep series as a table: one row per X value, one
// column per method. Rows cover the longest series' x-axis and cells are
// matched by X value, so a series missing a point (e.g. one method
// skipping part of a sweep) renders `-` there instead of panicking or
// misattributing a neighbouring point's value.
func RenderSweep(xLabel string, series []SweepSeries) string {
	if len(series) == 0 {
		return ""
	}
	headers := []string{xLabel}
	longest := 0
	for si, s := range series {
		headers = append(headers, s.Method)
		if len(s.X) > len(series[longest].X) {
			longest = si
		}
	}
	var rows [][]string
	for _, x := range series[longest].X {
		row := []string{fmtX(x)}
		for _, s := range series {
			cell := "-"
			for j, sx := range s.X {
				if sx == x {
					cell = stats.F(s.Y[j])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return stats.Table(headers, rows)
}

// fmtX formats sweep x-values: probabilities (values strictly between 0
// and 1) keep two decimals so 0.15 and 0.1 stay distinct; everything
// else — including negative sentinels like the ablation sweep's -1 —
// uses the compact default.
func fmtX(x float64) string {
	if x > 0 && x < 1 {
		return fmt.Sprintf("%.2f", x)
	}
	return stats.F(x)
}
