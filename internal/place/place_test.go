package place

import (
	"errors"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/graph"
	"cloudqc/internal/qlib"
)

// smallCloud is 4 QPUs in a path, 20 computing + 5 comm qubits each.
func smallCloud() *cloud.Cloud {
	return cloud.New(graph.Path(4), 20, 5)
}

// paperCloud matches the paper's default: 20 QPUs, random p=0.3 topology,
// 20 computing + 5 communication qubits.
func paperCloud(seed int64) *cloud.Cloud {
	return cloud.NewRandom(20, 0.3, 20, 5, seed)
}

func TestPlacementUsedQPUs(t *testing.T) {
	c := circuit.New("t", 4)
	p := &Placement{Circuit: c, QubitToQPU: []int{2, 0, 2, 0}}
	used := p.UsedQPUs()
	if len(used) != 2 || used[0] != 0 || used[1] != 2 {
		t.Fatalf("UsedQPUs = %v", used)
	}
	counts := p.QubitsPerQPU()
	if counts[0] != 2 || counts[2] != 2 {
		t.Fatalf("QubitsPerQPU = %v", counts)
	}
}

func TestPlacementValidate(t *testing.T) {
	cl := smallCloud()
	c := circuit.New("t", 3)
	ok := &Placement{Circuit: c, QubitToQPU: []int{0, 1, 1}}
	if err := ok.Validate(cl); err != nil {
		t.Fatal(err)
	}
	short := &Placement{Circuit: c, QubitToQPU: []int{0}}
	if short.Validate(cl) == nil {
		t.Fatal("partial placement should fail validation")
	}
	bad := &Placement{Circuit: c, QubitToQPU: []int{0, 1, 9}}
	if bad.Validate(cl) == nil {
		t.Fatal("invalid QPU id should fail validation")
	}
}

func TestPlacementValidateCapacity(t *testing.T) {
	cl := smallCloud()
	if err := cl.Reserve(0, 19); err != nil {
		t.Fatal(err)
	}
	c := circuit.New("t", 3)
	p := &Placement{Circuit: c, QubitToQPU: []int{0, 0, 0}}
	if p.Validate(cl) == nil {
		t.Fatal("placement exceeding free capacity should fail")
	}
}

func TestReserveReleaseRoundTrip(t *testing.T) {
	cl := smallCloud()
	c := circuit.New("t", 6)
	p := &Placement{Circuit: c, QubitToQPU: []int{0, 0, 1, 1, 1, 3}}
	if err := p.Reserve(cl); err != nil {
		t.Fatal(err)
	}
	if cl.FreeComputing(0) != 18 || cl.FreeComputing(1) != 17 || cl.FreeComputing(3) != 19 {
		t.Fatalf("reserve wrong: %v", cl.FreeSnapshot())
	}
	p.Release(cl)
	if cl.TotalFreeComputing() != 80 {
		t.Fatalf("release wrong: %v", cl.FreeSnapshot())
	}
}

func TestReserveRollsBackOnFailure(t *testing.T) {
	cl := smallCloud()
	if err := cl.Reserve(1, 19); err != nil {
		t.Fatal(err)
	}
	c := circuit.New("t", 25)
	assign := make([]int, 25)
	for i := 5; i < 25; i++ {
		assign[i] = 1 // 20 qubits on QPU 1, which has only 1 free
	}
	p := &Placement{Circuit: c, QubitToQPU: assign}
	if err := p.Reserve(cl); err == nil {
		t.Fatal("reserve should fail")
	}
	if cl.FreeComputing(0) != 20 {
		t.Fatal("failed reserve must roll back partial reservations")
	}
}

func TestCommCostHandExample(t *testing.T) {
	cl := smallCloud() // path: dist(0,3) = 3
	c := circuit.New("t", 2)
	c.Append(circuit.CX(0, 1), circuit.CX(0, 1))
	cost := CommCost(c, cl, []int{0, 3})
	if cost != 6 { // D=2, C=3
		t.Fatalf("CommCost = %v, want 6", cost)
	}
	if cost := CommCost(c, cl, []int{1, 1}); cost != 0 {
		t.Fatalf("local CommCost = %v, want 0", cost)
	}
}

func TestRemoteOpsCount(t *testing.T) {
	c := circuit.New("t", 3)
	c.Append(circuit.CX(0, 1), circuit.CX(1, 2), circuit.CX(0, 1), circuit.H(0))
	if n := RemoteOps(c, []int{0, 0, 1}); n != 1 {
		t.Fatalf("RemoteOps = %d, want 1", n)
	}
	if n := RemoteOps(c, []int{0, 1, 2}); n != 3 {
		t.Fatalf("RemoteOps = %d, want 3", n)
	}
}

func TestRemoteOpsPerQPU(t *testing.T) {
	c := circuit.New("t", 3)
	c.Append(circuit.CX(0, 1), circuit.CX(1, 2))
	r := RemoteOpsPerQPU(c, 4, []int{0, 1, 1})
	if r[0] != 1 || r[1] != 1 || r[2] != 0 {
		t.Fatalf("RemoteOpsPerQPU = %v", r)
	}
}

func TestScoreOrdering(t *testing.T) {
	// Lower time and lower cost must both increase the score.
	if Score(10, 10) <= Score(20, 10) {
		t.Fatal("faster placement should score higher")
	}
	if Score(10, 10) <= Score(10, 20) {
		t.Fatal("cheaper placement should score higher")
	}
	// Zero communication dominates any real communication cost.
	if Score(10, 0) <= Score(10, 1) {
		t.Fatal("local placement should dominate")
	}
}

func TestCloudQCSingleQPUFastPath(t *testing.T) {
	cl := smallCloud()
	c := qlib.GHZ(10)
	p := NewCloudQC(DefaultConfig())
	pl, err := p.Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(cl); err != nil {
		t.Fatal(err)
	}
	if len(pl.UsedQPUs()) != 1 {
		t.Fatalf("10-qubit circuit on 20-qubit QPUs should use one QPU, used %v", pl.UsedQPUs())
	}
	if RemoteOps(c, pl.QubitToQPU) != 0 {
		t.Fatal("single-QPU placement must have zero remote ops")
	}
}

func TestCloudQCBestFitPrefersTightQPU(t *testing.T) {
	cl := smallCloud()
	if err := cl.Reserve(0, 8); err != nil { // QPU0 has 12 free
		t.Fatal(err)
	}
	c := qlib.GHZ(11)
	pl, err := NewCloudQC(DefaultConfig()).Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	if pl.UsedQPUs()[0] != 0 {
		t.Fatalf("best fit should pick QPU 0 (12 free), got %v", pl.UsedQPUs())
	}
}

func TestCloudQCDistributesLargeCircuit(t *testing.T) {
	cl := smallCloud()
	c := qlib.GHZ(50)
	pl, err := NewCloudQC(DefaultConfig()).Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(cl); err != nil {
		t.Fatal(err)
	}
	if len(pl.UsedQPUs()) < 3 {
		t.Fatalf("50 qubits on 20-qubit QPUs needs >= 3, used %v", pl.UsedQPUs())
	}
}

func TestCloudQCChainCutQuality(t *testing.T) {
	// A GHZ chain partitions with cut ~= parts-1; CloudQC should stay
	// well below a random scattering.
	cl := paperCloud(3)
	c := qlib.GHZ(127)
	pl, err := NewCloudQC(DefaultConfig()).Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(cl); err != nil {
		t.Fatal(err)
	}
	remote := RemoteOps(c, pl.QubitToQPU)
	// Paper Table III: CloudQC achieves 8 on ghz_n127. Allow headroom
	// but require the same order of magnitude.
	if remote > 20 {
		t.Fatalf("ghz_n127 remote ops = %d, want <= 20 (paper: 8)", remote)
	}
}

func TestStarInteractionCircuitsPlaceable(t *testing.T) {
	// Bernstein–Vazirani interaction graphs are stars: without a coarse
	// vertex weight cap, multilevel coarsening collapses the star into
	// one unsplittable super-vertex and every candidate fails
	// (regression test for that bug).
	cl := paperCloud(1)
	for _, name := range []string{"bv_n70", "bv_n140", "cc_n64"} {
		c := qlib.MustBuild(name)
		for _, p := range []Placer{NewCloudQC(DefaultConfig()), bfsPlacer()} {
			pl, err := p.Place(cl, c)
			if err != nil {
				t.Fatalf("%s on %s: %v", p.Name(), name, err)
			}
			if err := pl.Validate(cl); err != nil {
				t.Fatalf("%s on %s: %v", p.Name(), name, err)
			}
		}
	}
}

func TestCloudQCInfeasible(t *testing.T) {
	cl := smallCloud() // 80 qubits total
	c := qlib.GHZ(127)
	_, err := NewCloudQC(DefaultConfig()).Place(cl, c)
	var infeasible *ErrInfeasible
	if !errors.As(err, &infeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestCloudQCRespectsReservations(t *testing.T) {
	cl := smallCloud()
	if err := cl.Reserve(1, 20); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reserve(2, 20); err != nil {
		t.Fatal(err)
	}
	c := qlib.GHZ(30)
	pl, err := NewCloudQC(DefaultConfig()).Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(cl); err != nil {
		t.Fatal(err)
	}
	for _, q := range pl.UsedQPUs() {
		if q == 1 || q == 2 {
			t.Fatalf("placed on fully reserved QPU %d", q)
		}
	}
}

func TestCloudQCBFSVariantName(t *testing.T) {
	cfg := DefaultConfig()
	if NewCloudQC(cfg).Name() != "CloudQC" {
		t.Fatal("name")
	}
	cfg.UseBFS = true
	if NewCloudQC(cfg).Name() != "CloudQC-BFS" {
		t.Fatal("bfs name")
	}
}

func TestCloudQCBFSPlacesValidly(t *testing.T) {
	cl := paperCloud(5)
	cfg := DefaultConfig()
	cfg.UseBFS = true
	pl, err := NewCloudQC(cfg).Place(cl, qlib.MustBuild("knn_n67"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(cl); err != nil {
		t.Fatal(err)
	}
}

func TestCloudQCEpsilonConstraint(t *testing.T) {
	cl := paperCloud(7)
	cfg := DefaultConfig()
	cfg.RemoteOpsEpsilon = 40
	c := qlib.MustBuild("knn_n67")
	pl, err := NewCloudQC(cfg).Place(cl, c)
	if err != nil {
		// A tight epsilon may make every candidate infeasible; that is a
		// legitimate outcome of Eq. 6.
		var infeasible *ErrInfeasible
		if !errors.As(err, &infeasible) {
			t.Fatalf("unexpected error type: %v", err)
		}
		return
	}
	for _, r := range RemoteOpsPerQPU(c, cl.NumQPUs(), pl.QubitToQPU) {
		if r > cfg.RemoteOpsEpsilon {
			t.Fatalf("R(V) = %d exceeds epsilon %d", r, cfg.RemoteOpsEpsilon)
		}
	}
}

func TestAllPlacersProduceValidPlacements(t *testing.T) {
	cl := paperCloud(11)
	placers := []Placer{
		NewCloudQC(DefaultConfig()),
		bfsPlacer(),
		NewRandom(1),
		NewAnnealer(1),
		NewGenetic(1),
	}
	for _, name := range []string{"ghz_n127", "knn_n67", "ising_n66"} {
		c := qlib.MustBuild(name)
		for _, p := range placers {
			pl, err := p.Place(cl, c)
			if err != nil {
				t.Fatalf("%s on %s: %v", p.Name(), name, err)
			}
			if err := pl.Validate(cl); err != nil {
				t.Fatalf("%s on %s: %v", p.Name(), name, err)
			}
		}
	}
}

func bfsPlacer() Placer {
	cfg := DefaultConfig()
	cfg.UseBFS = true
	return NewCloudQC(cfg)
}

func TestCloudQCBeatsRandomOnStructuredCircuits(t *testing.T) {
	cl := paperCloud(13)
	for _, name := range []string{"ghz_n127", "ising_n98", "qugan_n71"} {
		c := qlib.MustBuild(name)
		clq, err := NewCloudQC(DefaultConfig()).Place(cl, c)
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := NewRandom(17).Place(cl, c)
		if err != nil {
			t.Fatal(err)
		}
		cqCost := CommCost(c, cl, clq.QubitToQPU)
		rndCost := CommCost(c, cl, rnd.QubitToQPU)
		if cqCost >= rndCost {
			t.Fatalf("%s: CloudQC cost %v not better than random %v", name, cqCost, rndCost)
		}
	}
}

func TestAnnealerImprovesOnRandom(t *testing.T) {
	cl := paperCloud(19)
	c := qlib.MustBuild("qugan_n71")
	sa := NewAnnealer(5)
	sa.Iterations = 5000
	pl, err := sa.Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := NewRandom(5).Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	if CommCost(c, cl, pl.QubitToQPU) > CommCost(c, cl, rnd.QubitToQPU) {
		t.Fatal("SA should not be worse than its random starting class")
	}
}

func TestGeneticRepairRespectsCapacity(t *testing.T) {
	cl := paperCloud(23)
	c := qlib.MustBuild("swap_test_n115")
	ga := NewGenetic(3)
	ga.Generations = 10
	pl, err := ga.Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(cl); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateTimeLocalVsRemote(t *testing.T) {
	cl := smallCloud()
	c := circuit.New("t", 2)
	c.Append(circuit.CX(0, 1))
	cfg := DefaultConfig()
	local := estimateOf(c, cl, cfg.Model, []int{0, 0})
	remote := estimateOf(c, cl, cfg.Model, []int{0, 3})
	if local != 1 {
		t.Fatalf("local estimate = %v, want 1", local)
	}
	if remote <= local {
		t.Fatal("remote gate must cost more than local")
	}
	nearer := estimateOf(c, cl, cfg.Model, []int{0, 1})
	if nearer >= remote {
		t.Fatal("closer QPUs must cost less than distant ones")
	}
}

func TestMoveDeltaMatchesFullRecompute(t *testing.T) {
	cl := paperCloud(29)
	c := qlib.MustBuild("ising_n34")
	pl, err := NewRandom(7).Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	assign := pl.QubitToQPU
	adj := interactionAdjacency(c)
	before := CommCost(c, cl, assign)
	// Move qubit 5 to QPU 3.
	delta := moveDelta(cl, adj, assign, 5, 3)
	assign[5] = 3
	after := CommCost(c, cl, assign)
	if diff := after - before - delta; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("moveDelta %v != recomputed %v", delta, after-before)
	}
}

func TestSwapDeltaMatchesFullRecompute(t *testing.T) {
	cl := paperCloud(31)
	c := qlib.MustBuild("ising_n34")
	pl, err := NewRandom(9).Place(cl, c)
	if err != nil {
		t.Fatal(err)
	}
	assign := pl.QubitToQPU
	if assign[2] == assign[9] {
		assign[9] = (assign[9] + 1) % cl.NumQPUs()
	}
	adj := interactionAdjacency(c)
	before := CommCost(c, cl, assign)
	delta := swapDelta(cl, adj, assign, 2, 9)
	assign[2], assign[9] = assign[9], assign[2]
	after := CommCost(c, cl, assign)
	if diff := after - before - delta; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("swapDelta %v != recomputed %v", delta, after-before)
	}
}
