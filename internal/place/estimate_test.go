package place

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
)

// dagCriticalPath is the reference for the critical-path scans: it
// builds explicit predecessor lists (an edge from the last gate on each
// of a gate's qubits) and takes the longest weighted path, walking the
// gates in program order, which is topological.
func dagCriticalPath(c *circuit.Circuit, dur func(i int) float64) float64 {
	gates := c.Gates()
	preds := make([][]int, len(gates))
	last := make([]int, c.NumQubits())
	for q := range last {
		last[q] = -1
	}
	for i, g := range gates {
		for _, q := range g.Qubits[:g.Arity()] {
			if p := last[q]; p >= 0 {
				preds[i] = append(preds[i], p)
			}
			last[q] = i
		}
	}
	finish := make([]float64, len(gates))
	var total float64
	for i := range gates {
		start := 0.0
		for _, p := range preds[i] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[i] = start + dur(i)
		if finish[i] > total {
			total = finish[i]
		}
	}
	return total
}

// randomCircuit draws a seeded circuit of one-qubit gates, CXs and
// measures over 1–12 qubits.
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 1 + rng.Intn(12)
	c := circuit.New(fmt.Sprintf("rand_n%d", n), n)
	for i := rng.Intn(80); i > 0; i-- {
		a, b := rng.Intn(n), rng.Intn(n)
		switch {
		case a != b && rng.Intn(2) == 0:
			c.Append(circuit.CX(a, b))
		case rng.Intn(5) == 0:
			c.Append(circuit.M(a))
		default:
			c.Append(circuit.H(a))
		}
	}
	return c
}

// scanCircuits returns every qlib generator's circuit followed by 100
// seeded random ones.
func scanCircuits() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for _, name := range qlib.Names() {
		cs = append(cs, qlib.MustBuild(name))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		cs = append(cs, randomCircuit(rng))
	}
	return cs
}

// twoIslands is a 6-QPU cloud of two components, a path 0–1–2 and an
// edge 3–4, plus the isolated QPU 5: it has pairs at one and two hops
// and unreachable pairs (Distance = −1).
func twoIslands() *cloud.Cloud {
	g := graph.Build(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1}})
	return cloud.New(g, 20, 5)
}

// estimateOf is the whole estimate for one placement: c's estimate
// program under m, scanned with cl's remote latencies tabulated.
func estimateOf(c *circuit.Circuit, cl *cloud.Cloud, m epr.Model, qubitToQPU []int) float64 {
	return estimateTime(compileEstimate(c, m), make([]float64, c.NumQubits()), cl, qubitToQPU, remoteLatencies(cl, m))
}

// TestEstimateTimeMatchesDAG checks the scan, which reads remote
// latencies off the hop-indexed table, against the DAG reference, which
// calls ExpectedRemoteLatency per remote gate, bit for bit: under random
// assignments on random clouds, on an edgeless one and on one with both
// reachable and unreachable pairs (Distance = −1 clamps to one hop), for
// the default model and for one whose latencies are negative or NaN.
// localTime, the all-on-one-QPU scan, must match the DAG with every gate
// local.
func TestEstimateTimeMatchesDAG(t *testing.T) {
	clouds := []*cloud.Cloud{
		cloud.NewRandom(4, 0.5, 20, 5, 1),
		cloud.NewRandom(10, 0.3, 20, 5, 2),
		cloud.NewRandom(20, 0.3, 20, 5, 3),
		cloud.New(graph.Build(6, nil), 20, 5),
		twoIslands(),
	}
	odd := epr.DefaultModel()
	odd.OneQubit, odd.Measure = -0.7, math.NaN()
	models := []epr.Model{epr.DefaultModel(), odd}
	rng := rand.New(rand.NewSource(11))
	for _, c := range scanCircuits() {
		gates := c.Gates()
		for mi, m := range models {
			want := dagCriticalPath(c, func(i int) float64 { return m.GateDuration(gates[i].Kind) })
			if got := localTime(compileEstimate(c, m), c.NumQubits()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s model %d: localTime %v, DAG reference = %v", c.Name, mi, got, want)
			}
		}
		for ci, cl := range clouds {
			for trial := 0; trial < 4; trial++ {
				assign := make([]int, c.NumQubits())
				for q := range assign {
					assign[q] = rng.Intn(cl.NumQPUs())
				}
				for mi, m := range models {
					want := dagCriticalPath(c, func(i int) float64 {
						g := gates[i]
						if g.Kind == circuit.Two {
							if a, b := assign[g.Qubits[0]], assign[g.Qubits[1]]; a != b {
								return m.ExpectedRemoteLatency(cl.Distance(a, b))
							}
						}
						return m.GateDuration(g.Kind)
					})
					got := estimateOf(c, cl, m, assign)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s cloud %d trial %d model %d: estimate %v, DAG reference = %v",
							c.Name, ci, trial, mi, got, want)
					}
				}
			}
		}
	}
}

// TestRemoteLatencyTable: the table entry a pair of QPUs reads holds
// exactly ExpectedRemoteLatency of the pair's distance, unreachable
// pairs included.
func TestRemoteLatencyTable(t *testing.T) {
	odd := epr.DefaultModel()
	odd.Measure, odd.TwoQubit = math.NaN(), -3
	for _, m := range []epr.Model{epr.DefaultModel(), odd} {
		for _, cl := range []*cloud.Cloud{twoIslands(), cloud.NewRandom(20, 0.3, 20, 5, 3)} {
			lat := remoteLatencies(cl, m)
			unreachable := 0
			for a := 0; a < cl.NumQPUs(); a++ {
				for b := 0; b < cl.NumQPUs(); b++ {
					d := cl.Distance(a, b)
					if d < 0 {
						unreachable++
					}
					got, want := lat[max(d, 0)], m.ExpectedRemoteLatency(d)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("QPUs %d, %d (distance %d): table %v, ExpectedRemoteLatency %v", a, b, d, got, want)
					}
				}
			}
			if cl.NumQPUs() == 6 && unreachable == 0 {
				t.Fatal("twoIslands has no unreachable pair")
			}
		}
	}
}

// TestLocalOnlyMatchesDAG checks that, with every qubit on one QPU,
// both remote-DAG builders report the DAG reference's critical path as
// LocalOnly and leave no Tail.
func TestLocalOnlyMatchesDAG(t *testing.T) {
	cl := cloud.NewRandom(4, 0.5, 20, 5, 1)
	lat := epr.DefaultLatency()
	for _, c := range scanCircuits() {
		gates := c.Gates()
		want := dagCriticalPath(c, func(i int) float64 { return lat.GateDuration(gates[i].Kind) })
		assign := make([]int, c.NumQubits())
		remote := sched.BuildRemoteDAG(c, cl, assign, lat)
		migrating, _ := sched.BuildMigratingDAG(c, cl, assign, lat)
		for kind, d := range map[string]*sched.RemoteDAG{"remote": remote, "migrating": migrating} {
			if d.Len() != 0 || d.Tail != 0 || math.Float64bits(d.LocalOnly) != math.Float64bits(want) {
				t.Fatalf("%s %s DAG: %d nodes, Tail %v, LocalOnly %v; want 0 nodes, Tail 0, LocalOnly %v",
					c.Name, kind, d.Len(), d.Tail, d.LocalOnly, want)
			}
		}
	}
}
