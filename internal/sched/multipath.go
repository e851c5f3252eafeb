package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/route"
)

// RunMultipath is Run with congestion-aware entanglement routing: every
// remote gate chooses, the first round it becomes ready, the
// least-congested of its k shortest QPU paths (bottleneck budget after
// discounting the paths already claimed by higher-priority gates this
// round). k = 1 degenerates to Run's behavior on shortest paths.
//
// Multi-hop gates benefit most: on sparse topologies the single
// shortest path between two QPU clusters becomes a hot spot, and
// spreading attempts over alternatives raises round throughput.
func RunMultipath(dag *RemoteDAG, cl *cloud.Cloud, m epr.Model, p Policy, rng *rand.Rand, k int) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("sched: multipath k = %d < 1", k)
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	// Precompute alternatives for every distinct endpoint pair.
	pairs := make([][2]int, 0, dag.Len())
	for _, n := range dag.Nodes {
		pairs = append(pairs, [2]int{n.Path[0], n.Path[len(n.Path)-1]})
	}
	table := route.NewTable(cl.Topology(), pairs, k)
	virtual := make([]int, cl.NumQPUs())
	return runSingle(dag, cl, m, p, rng, nil, func(s *JobState, ready, budget []int) {
		// Route first-time-ready gates in priority order against the
		// virtual budget, so concurrent gates spread over the topology.
		copy(virtual, budget)
		orderedRoute(s, ready, table, virtual)
	})
}

// orderedRoute assigns paths to not-yet-attempted ready nodes, highest
// priority first, decrementing the virtual budget along each chosen
// path so later gates see earlier gates' claims.
func orderedRoute(s *JobState, ready []int, table *route.Table, virtual []int) {
	order := append([]int(nil), ready...)
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(s.Priority(b), s.Priority(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, u := range order {
		cur := s.Path(u)
		if s.Attempted(u) {
			// Path frozen; still record its claim for later gates.
			claim(cur, virtual)
			continue
		}
		a, b := cur[0], cur[len(cur)-1]
		if alt := table.Select(a, b, virtual); alt != nil && len(alt) >= 2 {
			s.SetPath(u, alt)
			claim(alt, virtual)
		} else {
			claim(cur, virtual)
		}
	}
}

func claim(path []int, virtual []int) {
	for _, q := range path {
		virtual[q]--
	}
}
