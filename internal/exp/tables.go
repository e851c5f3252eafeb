package exp

import (
	"fmt"

	"cloudqc/internal/circuit"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/stats"
)

// Table2Row compares one circuit's paper-reported characteristics with
// the qlib generator's output.
type Table2Row struct {
	Name                       string
	Qubits                     int
	PaperTwoQubit, GenTwoQubit int
	PaperDepth, GenDepth       int
}

// Table2 regenerates Table II: for every benchmark the paper lists, the
// generated circuit's characteristics next to the published ones.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, p := range qlib.Table2() {
		c := qlib.MustBuild(p.Name)
		rows = append(rows, Table2Row{
			Name:          p.Name,
			Qubits:        c.NumQubits(),
			PaperTwoQubit: p.TwoQubit,
			GenTwoQubit:   c.TwoQubitGateCount(),
			PaperDepth:    p.Depth,
			GenDepth:      c.Depth(),
		})
	}
	return rows
}

// RenderTable2 renders Table2 rows.
func RenderTable2(rows []Table2Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.PaperTwoQubit),
			fmt.Sprintf("%d", r.GenTwoQubit),
			fmt.Sprintf("%d", r.PaperDepth),
			fmt.Sprintf("%d", r.GenDepth),
		})
	}
	return stats.Table(
		[]string{"Circuit", "Qubits", "2q(paper)", "2q(gen)", "Depth(paper)", "Depth(gen)"},
		out)
}

// Table3Circuits lists the paper's Table III benchmark set in row order.
func Table3Circuits() []string {
	return []string{
		"ghz_n127", "bv_n70", "bv_n140", "ising_n34", "ising_n66", "ising_n98",
		"cat_n65", "cat_n130", "swap_test_n115", "knn_n67", "knn_n129",
		"qugan_n71", "qugan_n111", "cc_n64", "adder_n64", "adder_n118",
		"multiplier_n45", "multiplier_n75", "qft_n63", "qft_n160",
	}
}

// Table3Methods lists the placement methods in the paper's column order.
func Table3Methods() []string {
	return []string{"SA", "Random", "GA", "CloudQC-BFS", "CloudQC"}
}

// Table3Row holds one circuit's remote-operation counts per placement
// method.
type Table3Row struct {
	Circuit string
	Remote  map[string]int
}

// placersFor constructs the five Table III placement algorithms.
func placersFor(o Options) []place.Placer {
	bfsCfg := o.placeConfig(o.Seed)
	bfsCfg.UseBFS = true
	return []place.Placer{
		place.NewAnnealer(o.Seed),
		place.NewRandom(o.Seed),
		place.NewGenetic(o.Seed),
		place.NewCloudQC(bfsCfg),
		place.NewCloudQC(o.placeConfig(o.Seed)),
	}
}

// Table3 regenerates Table III: single-circuit placement remote-op
// counts for every method over the benchmark set. Every (circuit ×
// method) placement runs as an independent worker-pool task with its
// own placer and cloud; placements are deterministic in Options.Seed.
func Table3(o Options, circuits []string) ([]Table3Row, error) {
	o = o.withDefaults()
	if len(circuits) == 0 {
		circuits = Table3Circuits()
	}
	built, err := runIndexed(o.workers(), len(circuits), func(ci int) (*circuit.Circuit, error) {
		return qlib.Build(circuits[ci])
	})
	if err != nil {
		return nil, err
	}
	nMethods := len(placersFor(o))
	remote, err := runIndexed(o.workers(), len(circuits)*nMethods, func(i int) (int, error) {
		ci, pi := i/nMethods, i%nMethods
		p := placersFor(o)[pi] // fresh placer per task: SA/GA/Random hold internal RNG state
		cl := o.cloudFor()     // fresh reservations per method
		pl, err := p.Place(cl, built[ci])
		if err != nil {
			return 0, fmt.Errorf("table3: %s on %s: %w", p.Name(), circuits[ci], err)
		}
		return place.RemoteOps(built[ci], pl.QubitToQPU), nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for ci, name := range circuits {
		row := Table3Row{Circuit: name, Remote: map[string]int{}}
		for pi, p := range placersFor(o) {
			row.Remote[p.Name()] = remote[ci*nMethods+pi]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 renders Table3 rows in the paper's column order.
func RenderTable3(rows []Table3Row) string {
	headers := append([]string{"Circuit"}, Table3Methods()...)
	var out [][]string
	for _, r := range rows {
		row := []string{r.Circuit}
		for _, m := range Table3Methods() {
			row = append(row, fmt.Sprintf("%d", r.Remote[m]))
		}
		out = append(out, row)
	}
	return stats.Table(headers, out)
}
