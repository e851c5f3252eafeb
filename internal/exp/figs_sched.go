package exp

import (
	"fmt"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
	"cloudqc/internal/stats"
)

// SchedPolicies returns the four allocation policies of the scheduling
// evaluation in the paper's legend order.
func SchedPolicies() []sched.Policy {
	return []sched.Policy{
		sched.GreedyPolicy{},
		sched.AveragePolicy{},
		sched.RandomPolicy{},
		sched.CloudQCPolicy{},
	}
}

// CommQubitSweep is the x-axis of Figs. 10-13.
func CommQubitSweep() []int { return []int{5, 6, 7, 8, 9, 10} }

// EPRProbSweep is the x-axis of Figs. 18-21.
func EPRProbSweep() []float64 { return []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5} }

// SchedCircuits lists the representative circuits of Figs. 10-13 and
// 18-21 in figure order.
func SchedCircuits() []string {
	return []string{"qugan_n111", "qft_n160", "multiplier_n75", "qv_n100"}
}

// schedFixture places a circuit once (with CloudQC placement) so every
// policy schedules the identical remote DAG.
type schedFixture struct {
	topo   *graph.Graph
	circ   string
	assign []int
}

func newSchedFixture(o Options, circuitName string) (*schedFixture, error) {
	c, err := qlib.Build(circuitName)
	if err != nil {
		return nil, err
	}
	topo := graph.Random(o.QPUs, o.EdgeProb, o.Seed)
	cl := cloud.New(topo, o.Computing, o.Comm)
	pl, err := place.NewCloudQC(o.placeConfig(o.Seed)).Place(cl, c)
	if err != nil {
		return nil, fmt.Errorf("sched fixture: placing %s: %w", circuitName, err)
	}
	return &schedFixture{topo: topo, circ: circuitName, assign: pl.QubitToQPU}, nil
}

// pointFixture is the per-sweep-point simulation input: the cloud under
// test and the fixture's remote DAG contracted against it. Both are
// read-only under sched.Run, so concurrent tasks share one fixture.
type pointFixture struct {
	cl  *cloud.Cloud
	dag *sched.RemoteDAG
	m   epr.Model
}

// pointFor contracts the fixture's circuit for one (comm, prob) setting.
func (f *schedFixture) pointFor(o Options, comm int, prob float64) pointFixture {
	c := qlib.MustBuild(f.circ)
	cl := cloud.New(f.topo, o.Computing, comm)
	m := epr.DefaultModel()
	m.SuccessProb = prob
	return pointFixture{cl: cl, dag: sched.BuildRemoteDAG(c, cl, f.assign, m.Latency), m: m}
}

// policyJCTs fans every (policy × point × rep) simulation out to the
// worker pool and returns the per-policy mean JCT per point. Seeds
// derive from (Seed, point, rep) only — policies share streams so the
// comparison is paired.
func policyJCTs(o Options, points []pointFixture) ([][]float64, error) {
	policies := SchedPolicies()
	nPts, reps := len(points), o.Reps
	flat, err := runIndexed(o.workers(), len(policies)*nPts*reps, func(i int) (float64, error) {
		rep := i % reps
		pt := (i / reps) % nPts
		pi := i / (reps * nPts)
		f := points[pt]
		res, err := sched.Run(f.dag, f.cl, f.m, policies[pi], taskRNG(o.Seed, pt, rep))
		if err != nil {
			return 0, err
		}
		return res.JCT, nil
	})
	if err != nil {
		return nil, err
	}
	perPolicy := make([][]float64, len(policies))
	for pi := range policies {
		perPolicy[pi] = meanPerPoint(flat[pi*nPts*reps:(pi+1)*nPts*reps], nPts, reps)
	}
	return perPolicy, nil
}

// JCTVsCommQubits regenerates one of Figs. 10-13: mean job completion
// time per policy as communication qubits per QPU vary.
func JCTVsCommQubits(o Options, circuitName string, comm []int) ([]SweepSeries, error) {
	o = o.withDefaults()
	if len(comm) == 0 {
		comm = CommQubitSweep()
	}
	f, err := newSchedFixture(o, circuitName)
	if err != nil {
		return nil, err
	}
	points, err := runIndexed(o.workers(), len(comm), func(i int) (pointFixture, error) {
		return f.pointFor(o, comm[i], o.EPRProb), nil
	})
	if err != nil {
		return nil, err
	}
	means, err := policyJCTs(o, points)
	if err != nil {
		return nil, err
	}
	var series []SweepSeries
	for pi, p := range SchedPolicies() {
		s := SweepSeries{Method: p.Name(), Y: means[pi]}
		for _, cq := range comm {
			s.X = append(s.X, float64(cq))
		}
		series = append(series, s)
	}
	return series, nil
}

// JCTVsEPRProb regenerates one of Figs. 18-21: mean job completion time
// per policy as the EPR success probability varies.
func JCTVsEPRProb(o Options, circuitName string, probs []float64) ([]SweepSeries, error) {
	o = o.withDefaults()
	if len(probs) == 0 {
		probs = EPRProbSweep()
	}
	f, err := newSchedFixture(o, circuitName)
	if err != nil {
		return nil, err
	}
	points, err := runIndexed(o.workers(), len(probs), func(i int) (pointFixture, error) {
		return f.pointFor(o, o.Comm, probs[i]), nil
	})
	if err != nil {
		return nil, err
	}
	means, err := policyJCTs(o, points)
	if err != nil {
		return nil, err
	}
	var series []SweepSeries
	for pi, p := range SchedPolicies() {
		series = append(series, SweepSeries{Method: p.Name(), X: probs, Y: means[pi]})
	}
	return series, nil
}

// Fig22Circuits lists the benchmark set of Fig. 22 (network scheduling
// at the default setting). The paper's "100.qasm" entry is interpreted
// as qv_n100 and vqe_uccsd_n28 comes from the registry's VQE generator.
func Fig22Circuits() []string {
	return []string{
		"knn_n129", "qugan_n111", "qft_n63", "qft_n160", "vqe_uccsd_n28",
		"qv_n100", "adder_n64", "adder_n118", "multiplier_n45", "multiplier_n75",
	}
}

// Fig22Row is one circuit's JCT per policy relative to CloudQC (CloudQC
// = 1.0 by construction).
type Fig22Row struct {
	Circuit  string
	Relative map[string]float64
}

// Fig22 regenerates the relative-JCT comparison of the four scheduling
// policies at the default setting. Placements (one per circuit) and
// simulations (circuit × policy × rep, each circuit acting as one sweep
// point) both run on the worker pool.
func Fig22(o Options, circuits []string) ([]Fig22Row, error) {
	o = o.withDefaults()
	if len(circuits) == 0 {
		circuits = Fig22Circuits()
	}
	points, err := runIndexed(o.workers(), len(circuits), func(ci int) (pointFixture, error) {
		f, err := newSchedFixture(o, circuits[ci])
		if err != nil {
			return pointFixture{}, err
		}
		return f.pointFor(o, o.Comm, o.EPRProb), nil
	})
	if err != nil {
		return nil, err
	}
	means, err := policyJCTs(o, points)
	if err != nil {
		return nil, err
	}
	policies := SchedPolicies()
	var rows []Fig22Row
	for ci, name := range circuits {
		abs := map[string]float64{}
		for pi, p := range policies {
			abs[p.Name()] = means[pi][ci]
		}
		base := abs["CloudQC"]
		row := Fig22Row{Circuit: name, Relative: map[string]float64{}}
		for m, v := range abs {
			row.Relative[m] = v / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig22 renders Fig. 22 rows with policies in legend order.
func RenderFig22(rows []Fig22Row) string {
	headers := []string{"Circuit", "CloudQC", "Average", "Random", "Greedy"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Circuit,
			fmt.Sprintf("%.2f", r.Relative["CloudQC"]),
			fmt.Sprintf("%.2f", r.Relative["Average"]),
			fmt.Sprintf("%.2f", r.Relative["Random"]),
			fmt.Sprintf("%.2f", r.Relative["Greedy"]),
		})
	}
	return stats.Table(headers, out)
}
