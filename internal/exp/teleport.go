package exp

import (
	"fmt"

	"cloudqc/internal/cloud"
	"cloudqc/internal/graph"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
	"cloudqc/internal/stats"
)

// TeleportRow compares cat-entangler execution (every remote gate pays
// its own EPR) against teleportation-enabled execution (bursty qubits
// migrate) for one circuit.
type TeleportRow struct {
	Circuit     string
	StaticNodes int
	PlanNodes   int
	Teleports   int
	StaticJCT   float64
	PlanJCT     float64
}

// TeleportCircuits is the default comparison set: two winners (QFT's
// paired-CX phase blocks, the adder's MAJ/UMA ladders), one near-tie,
// and the multiplier counterexample whose alternating Toffoli streams
// make migrations ping-pong.
func TeleportCircuits() []string {
	return []string{"qft_n63", "adder_n64", "swap_test_n115", "multiplier_n45"}
}

// teleportPlans holds one circuit's two execution DAGs.
type teleportPlans struct {
	static, plan *sched.RemoteDAG
	teleports    int
}

// TeleportComparison evaluates the teleportation extension: same
// CloudQC placement, same scheduler, two execution plans. Placements
// (one per circuit) and simulations (circuit × plan × rep) fan out to
// the worker pool; the two plans of a circuit share per-rep streams so
// their JCT ratio isolates the execution strategy.
func TeleportComparison(o Options, circuits []string) ([]TeleportRow, error) {
	o = o.withDefaults()
	if len(circuits) == 0 {
		circuits = TeleportCircuits()
	}
	topo := graph.Random(o.QPUs, o.EdgeProb, o.Seed)
	cl := cloud.New(topo, o.Computing, o.Comm)
	m := o.model()

	plans, err := runIndexed(o.workers(), len(circuits), func(ci int) (teleportPlans, error) {
		c, err := qlib.Build(circuits[ci])
		if err != nil {
			return teleportPlans{}, err
		}
		pl, err := place.NewCloudQC(o.placeConfig(o.Seed)).Place(cloud.New(topo, o.Computing, o.Comm), c)
		if err != nil {
			return teleportPlans{}, fmt.Errorf("teleport comparison: placing %s: %w", circuits[ci], err)
		}
		static := sched.BuildRemoteDAG(c, cl, pl.QubitToQPU, m.Latency)
		plan, st := sched.BuildMigratingDAG(c, cl, pl.QubitToQPU, m.Latency)
		return teleportPlans{static: static, plan: plan, teleports: st.Teleports}, nil
	})
	if err != nil {
		return nil, err
	}

	// Flat (circuit × {static,plan} × rep) simulation grid; circuit ci is
	// sweep point ci, and both plans replay its rep streams.
	flat, err := runIndexed(o.workers(), len(circuits)*2*o.Reps, func(i int) (float64, error) {
		rep := i % o.Reps
		variant := (i / o.Reps) % 2
		ci := i / (2 * o.Reps)
		dag := plans[ci].static
		if variant == 1 {
			dag = plans[ci].plan
		}
		res, err := sched.Run(dag, cl, m, sched.CloudQCPolicy{}, taskRNG(o.Seed, ci, rep))
		if err != nil {
			return 0, err
		}
		return res.JCT, nil
	})
	if err != nil {
		return nil, err
	}
	means := meanPerPoint(flat, len(circuits)*2, o.Reps)

	var rows []TeleportRow
	for ci, name := range circuits {
		rows = append(rows, TeleportRow{
			Circuit:     name,
			StaticNodes: plans[ci].static.Len(),
			PlanNodes:   plans[ci].plan.Len(),
			Teleports:   plans[ci].teleports,
			StaticJCT:   means[ci*2],
			PlanJCT:     means[ci*2+1],
		})
	}
	return rows, nil
}

// RenderTeleport renders teleport comparison rows.
func RenderTeleport(rows []TeleportRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Circuit,
			fmt.Sprintf("%d", r.StaticNodes),
			fmt.Sprintf("%d", r.PlanNodes),
			fmt.Sprintf("%d", r.Teleports),
			stats.F(r.StaticJCT),
			stats.F(r.PlanJCT),
			fmt.Sprintf("%.2fx", r.StaticJCT/r.PlanJCT),
		})
	}
	return stats.Table(
		[]string{"Circuit", "RemoteGates", "PlanNodes", "Teleports", "CatJCT", "TeleJCT", "Speedup"},
		out)
}
