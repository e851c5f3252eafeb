package sched

import (
	"math/rand"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/route"
)

// ringCloud builds a ring topology where multi-hop pairs have two
// disjoint paths — the setting where multipath routing matters.
func ringCloud(comm int) *cloud.Cloud {
	return cloud.New(graph.Ring(6), 20, comm)
}

// crossRingCircuit puts many parallel remote gates between QPUs 0 and 3
// (opposite ring points, 3 hops apart with two disjoint routes).
func crossRingCircuit(gates int) (*circuit.Circuit, []int) {
	c := circuit.New("cross", 2*gates)
	assign := make([]int, 2*gates)
	for i := 0; i < gates; i++ {
		c.Append(circuit.CX(i, gates+i))
		assign[gates+i] = 3
	}
	return c, assign
}

func TestRunMultipathValidatesArgs(t *testing.T) {
	c, assign := crossRingCircuit(2)
	cl := ringCloud(5)
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	if _, err := RunMultipath(d, cl, epr.DefaultModel(), CloudQCPolicy{}, rand.New(rand.NewSource(1)), 0); err == nil {
		t.Fatal("k=0 should error")
	}
	bad := epr.DefaultModel()
	bad.SuccessProb = 0
	if _, err := RunMultipath(d, cl, bad, CloudQCPolicy{}, rand.New(rand.NewSource(1)), 2); err == nil {
		t.Fatal("invalid model should error")
	}
}

func TestRunMultipathK1MatchesRunShape(t *testing.T) {
	c, assign := crossRingCircuit(4)
	cl := ringCloud(5)
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	m := epr.Model{Latency: epr.DefaultLatency(), SuccessProb: 1}
	single, err := Run(d, cl, m, AveragePolicy{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	multi1, err := RunMultipath(d, cl, m, AveragePolicy{}, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	// With k=1 both use shortest paths of identical length; under p=1
	// the outcomes coincide.
	if single.JCT != multi1.JCT {
		t.Fatalf("k=1 multipath JCT %v != single-path %v", multi1.JCT, single.JCT)
	}
}

func TestRunMultipathSpreadsLoad(t *testing.T) {
	// 8 parallel 3-hop gates, 4 comm qubits per QPU: the single shortest
	// path bottlenecks, two disjoint ring paths double throughput.
	// Multipath must not be slower on average and should usually win.
	c, assign := crossRingCircuit(8)
	cl := ringCloud(4)
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	m := epr.DefaultModel()
	var sumSingle, sumMulti float64
	const reps = 20
	for seed := int64(0); seed < reps; seed++ {
		s, err := Run(d, cl, m, AveragePolicy{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		mu, err := RunMultipath(d, cl, m, AveragePolicy{}, rand.New(rand.NewSource(seed)), 2)
		if err != nil {
			t.Fatal(err)
		}
		sumSingle += s.JCT
		sumMulti += mu.JCT
	}
	if sumMulti > sumSingle {
		t.Fatalf("multipath mean JCT %v worse than single-path %v", sumMulti/reps, sumSingle/reps)
	}
}

func TestSetPathRules(t *testing.T) {
	c, assign := crossRingCircuit(1)
	cl := ringCloud(5)
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	s := NewJobState(d, 0)
	// Valid reroute before attempts.
	alt := []int{0, 5, 4, 3}
	s.SetPath(0, alt)
	if got := s.Path(0); len(got) != 4 {
		t.Fatalf("Path = %v", got)
	}
	// Attempt freezes the path.
	m := epr.Model{Latency: epr.DefaultLatency(), SuccessProb: 0.01}
	s.Attempt(0, 1, m.RoundSuccess(1), 0, m, rand.New(rand.NewSource(1)), nil)
	if !s.Attempted(0) {
		t.Fatal("Attempted not recorded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPath after attempts should panic")
		}
	}()
	s.SetPath(0, []int{0, 1, 2, 3})
}

func TestSetPathRejectsDegenerate(t *testing.T) {
	c, assign := crossRingCircuit(1)
	cl := ringCloud(5)
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	s := NewJobState(d, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("single-node path should panic")
		}
	}()
	s.SetPath(0, []int{0})
}

func TestRunMultipathLocalOnly(t *testing.T) {
	cl := ringCloud(5)
	c := circuit.New("local", 2)
	c.Append(circuit.H(0), circuit.CX(0, 1))
	d := BuildRemoteDAG(c, cl, []int{0, 0}, epr.DefaultLatency())
	res, err := RunMultipath(d, cl, epr.DefaultModel(), CloudQCPolicy{}, rand.New(rand.NewSource(1)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.JCT <= 0 {
		t.Fatalf("local-only result %+v", res)
	}
}

// --- orderedRoute / route.Table interaction ---------------------------
//
// RunMultipath's routing step was only exercised end to end; the cases
// below pin the contract directly: unreachable pairs fall back to the
// DAG path, k=1 tables cannot divert, and Select's tie ordering is
// shorter-then-enumeration-order.

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// detourGraph has a 2-hop path 0-1-2 and a 3-hop detour 0-3-4-2, so
// tie ordering between unequal lengths is observable.
func detourGraph() *graph.Graph {
	return graph.Build(5, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 2, W: 1}})
}

func TestTableUnreachablePair(t *testing.T) {
	g := graph.Build(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}) // two components
	table := route.NewTable(g, [][2]int{{0, 3}, {0, 1}}, 2)
	if p := table.Paths(0, 3); p != nil {
		t.Fatalf("Paths across components = %v, want nil", p)
	}
	if p := table.Select(0, 3, []int{5, 5, 5, 5}); p != nil {
		t.Fatalf("Select across components = %v, want nil", p)
	}
	// Reachable pairs are direction-insensitive.
	if p := table.Paths(1, 0); len(p) != 1 || !samePath(p[0], []int{0, 1}) {
		t.Fatalf("Paths(1, 0) = %v", p)
	}
}

// TestOrderedRouteUnreachableFallsBack: when the table has no route for
// a gate's endpoints, the gate keeps its DAG path and still charges the
// virtual budget along it, so later gates see the claim.
func TestOrderedRouteUnreachableFallsBack(t *testing.T) {
	c, assign := crossRingCircuit(1)
	cl := ringCloud(5)
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	s := NewJobState(d, 0)
	ready := s.AppendReady(nil, 0)
	if len(ready) != 1 {
		t.Fatalf("ready = %v, want one gate", ready)
	}
	cur := append([]int(nil), s.Path(ready[0])...)

	// No route from 0 to 3 in the table's graph.
	disconnected := graph.Build(6, []graph.Edge{{U: 0, V: 1, W: 1}})
	table := route.NewTable(disconnected, [][2]int{{0, 3}}, 2)
	virtual := []int{5, 5, 5, 5, 5, 5}
	orderedRoute(s, ready, table, virtual)

	if !samePath(s.Path(ready[0]), cur) {
		t.Fatalf("path changed to %v despite unreachable table entry (was %v)", s.Path(ready[0]), cur)
	}
	onPath := make(map[int]bool)
	for _, q := range cur {
		onPath[q] = true
	}
	for q, v := range virtual {
		want := 5
		if onPath[q] {
			want = 4
		}
		if v != want {
			t.Fatalf("virtual[%d] = %d, want %d (fallback must still claim the DAG path %v)", q, v, want, cur)
		}
	}
}

// TestTableK1CannotDivert: with k=1 the table stores only the shortest
// path, so even a starved budget selects it — Run's behavior.
func TestTableK1CannotDivert(t *testing.T) {
	table := route.NewTable(detourGraph(), [][2]int{{0, 2}}, 1)
	paths := table.Paths(0, 2)
	if len(paths) != 1 || !samePath(paths[0], []int{0, 1, 2}) {
		t.Fatalf("k=1 Paths = %v, want just the shortest", paths)
	}
	budget := []int{5, 0, 5, 5, 5} // starve the stored path's midpoint
	if got := table.Select(0, 2, budget); !samePath(got, []int{0, 1, 2}) {
		t.Fatalf("k=1 Select = %v, want the single stored path", got)
	}
}

// TestTableSelectTieOrdering drives Select through its documented
// ordering: largest bottleneck wins, ties prefer shorter paths, then
// enumeration order.
func TestTableSelectTieOrdering(t *testing.T) {
	table := route.NewTable(detourGraph(), [][2]int{{0, 2}}, 3)
	paths := table.Paths(0, 2)
	if len(paths) != 2 {
		t.Fatalf("detour graph should yield 2 paths, got %v", paths)
	}
	short, long := []int{0, 1, 2}, []int{0, 3, 4, 2}
	if !samePath(paths[0], short) || !samePath(paths[1], long) {
		t.Fatalf("paths = %v, want enumeration order [short, long]", paths)
	}
	budget := func(overrides map[int]int) []int {
		b := []int{5, 5, 5, 5, 5}
		for q, v := range overrides {
			b[q] = v
		}
		return b
	}
	cases := []struct {
		name string
		b    []int
		want []int
	}{
		{"equal budget prefers shorter", budget(nil), short},
		{"starved short midpoint diverts", budget(map[int]int{1: 0}), long},
		{"starved detour stays short", budget(map[int]int{3: 0, 4: 0}), short},
		{"equal bottleneck prefers shorter", budget(map[int]int{1: 2, 3: 2}), short},
		{"shared endpoint starvation cannot divert", budget(map[int]int{0: 0}), short},
		{"higher detour bottleneck wins despite length", budget(map[int]int{1: 1}), long},
	}
	for _, tc := range cases {
		if got := table.Select(0, 2, tc.b); !samePath(got, tc.want) {
			t.Fatalf("%s: Select(budget=%v) = %v, want %v", tc.name, tc.b, got, tc.want)
		}
	}
}

// TestOrderedRoutePriorityClaims: gates route in priority order, so the
// critical gate takes the last uncongested arm and the lower-priority
// gate is left on the starved shortest path.
func TestOrderedRoutePriorityClaims(t *testing.T) {
	// Gate A (qubits 0,1) has a successor C, so its priority (longest
	// path to a leaf) exceeds standalone gate B's (qubits 2,3); A and B
	// are both ready at t=0 and both cross QPUs 0-3.
	c := circuit.New("prio", 4)
	c.Append(circuit.CX(0, 1), circuit.CX(2, 3), circuit.CX(0, 1))
	assign := []int{0, 3, 0, 3}
	cl := ringCloud(5)
	d := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	s := NewJobState(d, 0)
	ready := s.AppendReady(nil, 0)
	if len(ready) != 2 {
		t.Fatalf("ready = %v, want gates A and B", ready)
	}
	a, b := ready[0], ready[1]
	if s.Priority(a) <= s.Priority(b) {
		t.Fatalf("priority(A)=%d should exceed priority(B)=%d", s.Priority(a), s.Priority(b))
	}

	table := route.NewTable(cl.Topology(), [][2]int{{0, 3}}, 2)
	paths := table.Paths(0, 3)
	if len(paths) != 2 {
		t.Fatalf("ring 0-3 should have 2 arms, got %v", paths)
	}
	arm1, arm2 := paths[0], paths[1]
	// Starve arm1's first intermediate and leave exactly one unit
	// everywhere else: A (routed first) diverts to arm2 and exhausts
	// it; B then ties at bottleneck 0 and lands on arm1.
	virtual := []int{1, 1, 1, 1, 1, 1}
	virtual[arm1[1]] = 0
	orderedRoute(s, ready, table, virtual)
	if !samePath(s.Path(a), arm2) {
		t.Fatalf("high-priority gate path = %v, want the free arm %v", s.Path(a), arm2)
	}
	if !samePath(s.Path(b), arm1) {
		t.Fatalf("low-priority gate path = %v, want the leftover arm %v", s.Path(b), arm1)
	}
}
