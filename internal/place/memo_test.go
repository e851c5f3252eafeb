package place

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
	"cloudqc/internal/plan"
	"cloudqc/internal/qlib"
)

// memoTemplates are the qlib circuits the memo tests place: 28 to 71
// qubits, so each needs two or more of the cloud's 20-qubit QPUs.
var memoTemplates = []string{
	"vqe_uccsd_n28", "wstate_n36", "qugan_n39", "adder_n64",
	"ising_n66", "knn_n67", "qugan_n71",
}

// placeCall is one Place call of a seeded sequence: the cloud's free
// snapshot, the circuit, and what a fresh placer returned.
type placeCall struct {
	free       []int
	circuit    *circuit.Circuit
	assign     []int // nil when infeasible
	infeasible bool
}

// outcome reduces a Place result to what the differential compares.
func outcome(t *testing.T, pl *Placement, err error) (assign []int, infeasible bool) {
	t.Helper()
	if err != nil {
		var inf *ErrInfeasible
		if !errors.As(err, &inf) {
			t.Fatalf("Place: unexpected error %v", err)
		}
		return nil, true
	}
	return pl.QubitToQPU, false
}

// placeSequence drives one long-lived placer over a seeded sequence of
// Reserve/Release states and checks every call against a fresh
// NewCloudQC(cfg), which has nothing memoized. It returns the calls
// made, with the fresh placer's answers.
func placeSequence(t *testing.T, cfg Config, seed int64, steps int) []placeCall {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cl := cloud.NewRandom(20, 0.3, 20, 5, seed)
	circuits := make([]*circuit.Circuit, len(memoTemplates))
	for i, name := range memoTemplates {
		circuits[i] = qlib.MustBuild(name)
	}
	longLived := NewCloudQC(cfg)
	var held []*Placement
	var calls []placeCall
	for step := 0; step < steps; step++ {
		// Perturb the free state: now and then release a held job, and
		// nibble a few qubits off a random QPU for this call only.
		if len(held) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(held))
			held[i].Release(cl)
			held = slices.Delete(held, i, i+1)
		}
		q, n := rng.Intn(cl.NumQPUs()), rng.Intn(6)
		if n > cl.FreeComputing(q) {
			n = cl.FreeComputing(q)
		}
		if err := cl.Reserve(q, n); err != nil {
			t.Fatal(err)
		}

		c := circuits[rng.Intn(len(circuits))]
		fresh, err := NewCloudQC(cfg).Place(cl, c)
		want, wantInf := outcome(t, fresh, err)
		pl, err := longLived.Place(cl, c)
		got, gotInf := outcome(t, pl, err)
		if gotInf != wantInf || !slices.Equal(got, want) {
			t.Fatalf("step %d %s free=%v: long-lived placer gave (%v, infeasible=%v), fresh gave (%v, infeasible=%v)",
				step, c.Name, cl.FreeSnapshot(), got, gotInf, want, wantInf)
		}
		calls = append(calls, placeCall{free: cl.FreeSnapshot(), circuit: c, assign: want, infeasible: wantInf})

		cl.Release(q, n)
		if !wantInf { // hold it, so the cloud fills and calls start failing
			pl := &Placement{Circuit: c, QubitToQPU: want}
			if err := pl.Reserve(cl); err != nil {
				t.Fatal(err)
			}
			held = append(held, pl)
		}
	}
	return calls
}

// digestCalls hashes a sequence's circuits, verdicts and placements.
func digestCalls(calls []placeCall) uint64 {
	h := fnv.New64a()
	for _, c := range calls {
		fmt.Fprintln(h, c.circuit.Name, c.infeasible, c.assign)
	}
	return h.Sum64()
}

func memoConfigs() map[string]Config {
	bfs := DefaultConfig()
	bfs.UseBFS = true
	eps := DefaultConfig()
	eps.RemoteOpsEpsilon = 40
	return map[string]Config{"default": DefaultConfig(), "bfs": bfs, "epsilon": eps}
}

// sequenceDigests are digestCalls of placeSequence(cfg, 5, 24), recorded
// with the placer from before partitions were memoized and graphs kept
// sorted adjacency lists, when every call ran the whole pipeline.
var sequenceDigests = map[string]uint64{
	"default": 0x5d91e46143e35684,
	"bfs":     0x6cde67ecf4e0bf91,
	"epsilon": 0x6da3215db084058d,
}

// TestCircuitMemoDifferential: memoizing partitions across calls never
// changes a placement or an infeasibility verdict, and the placements
// are the ones the unmemoized placer produced.
func TestCircuitMemoDifferential(t *testing.T) {
	for name, cfg := range memoConfigs() {
		t.Run(name, func(t *testing.T) {
			calls := placeSequence(t, cfg, 5, 24)
			if got := digestCalls(calls); got != sequenceDigests[name] {
				t.Errorf("placement digest %#x, want %#x", got, sequenceDigests[name])
			}
			feasible, infeasible := 0, 0
			for _, c := range calls {
				if c.infeasible {
					infeasible++
				} else {
					feasible++
				}
			}
			t.Logf("%d feasible, %d infeasible calls", feasible, infeasible)
			// The sequence must exercise both outcomes to mean anything.
			if feasible == 0 || infeasible == 0 {
				t.Fatalf("degenerate sequence: %d feasible, %d infeasible calls", feasible, infeasible)
			}
		})
	}
}

// TestSweepPartitionsEachCapOnce: a cold Place partitions each
// distinct (k, cap) point of the sweep once, so the circuit memo ends
// up holding exactly those points, fewer than the (α, k) pairs.
func TestSweepPartitionsEachCapOnce(t *testing.T) {
	c := qlib.MustBuild("knn_n67")
	cl := cloud.NewRandom(20, 0.3, 20, 5, 1)
	cfg := DefaultConfig()
	p := NewCloudQC(cfg)
	if _, err := p.Place(cl, c); err != nil {
		t.Fatal(err)
	}

	// The sweep's k range: from the fewest parts the largest free QPU
	// allows (at least 2) to one part per QPU with free capacity.
	n := c.NumQubits()
	maxFree, withFree := 0, 0
	for q := 0; q < cl.NumQPUs(); q++ {
		if f := cl.FreeComputing(q); f > 0 {
			withFree++
			maxFree = max(maxFree, f)
		}
	}
	kMin, kMax := max(2, (n+maxFree-1)/maxFree), min(withFree, n)
	distinct := make(map[[2]int]bool)
	pairs := 0
	for _, alpha := range cfg.ImbalanceFactors {
		for k := kMin; k <= kMax; k++ {
			distinct[[2]int{k, partition.Capacity(n, k, alpha)}] = true
			pairs++
		}
	}
	parts, ok := p.circuits.Lookup(c.Fingerprint(), nil)
	if !ok {
		t.Fatal("circuit memo lost the placed circuit")
	}
	got := len(parts.results)
	if got != len(distinct) {
		t.Fatalf("memo holds %d sweep points, want the %d distinct (k, cap) pairs", got, len(distinct))
	}
	if len(distinct) >= pairs {
		t.Fatalf("%d distinct (k, cap) pairs of %d (α, k) pairs: nothing to deduplicate", len(distinct), pairs)
	}
	t.Logf("%d (α, k) pairs, %d distinct (k, cap) points", pairs, len(distinct))
}

// TestInvalidImbalanceSkipped: imbalance factors the partitioner
// rejects (NaN, negative, +Inf) drop out of the sweep without touching
// the memo, so a valid factor sharing their cap places as if alone.
func TestInvalidImbalanceSkipped(t *testing.T) {
	alone := DefaultConfig()
	alone.ImbalanceFactors = []float64{0.05}
	mixed := DefaultConfig()
	mixed.ImbalanceFactors = []float64{math.NaN(), -0.1, math.Inf(1), 0.05}
	want := digestCalls(placeSequence(t, alone, 5, 24))
	if got := digestCalls(placeSequence(t, mixed, 5, 24)); got != want {
		t.Fatalf("placement digest %#x with invalid factors, %#x without", got, want)
	}
}

// TestCircuitMemoConcurrent shares one placer, and one cloud topology,
// between goroutines — as experiment workers and federation shards do
// — and checks every call against the serial answers. Every worker
// replays the same capacity states, so the workers also share tier
// memo entries. Run under -race it proves both memos and the shared
// graph race-clean.
func TestCircuitMemoConcurrent(t *testing.T) {
	const workers = 4
	cfg := DefaultConfig()
	calls := placeSequence(t, cfg, 9, 12)
	shared := NewCloudQC(cfg)
	topo := graph.Random(20, 0.3, 9) // the topology placeSequence's cloud used
	var wg sync.WaitGroup
	errs := make(chan string, len(calls)*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := cloud.New(topo, 20, 5)
			// Each worker walks the calls from a different offset, so
			// the memo fills in a different order on each.
			for i := range calls {
				c := calls[(i+w*len(calls)/workers)%len(calls)]
				for q, f := range c.free {
					cl.Release(q, cl.QPU(q).UsedComputing())
					if err := cl.Reserve(q, cl.QPU(q).Computing-f); err != nil {
						errs <- err.Error()
						return
					}
				}
				pl, err := shared.Place(cl, c.circuit)
				var got []int
				if err == nil {
					got = pl.QubitToQPU
				}
				if (err != nil) != c.infeasible || !slices.Equal(got, c.assign) {
					errs <- c.circuit.Name + ": concurrent placement differs from the serial run"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if shared.tiers.Len() == 0 {
		t.Fatal("no call reached the capacity tier; the tier memo went unshared")
	}
}

// TestCircuitMemoBounded: the circuit memo is a plan.Cache bounded at
// plan.DefaultCapacity. After one more distinct circuit than that it
// holds plan.DefaultCapacity of them and the least recently used one
// is gone: the first, refreshed after the second was stored, survives,
// and the second does not.
func TestCircuitMemoBounded(t *testing.T) {
	const n = plan.DefaultCapacity
	p := NewCloudQC(DefaultConfig())
	circuits := make([]*circuit.Circuit, n+1)
	for i := range circuits {
		circuits[i] = qlib.GHZ(3 + i)
		p.parts(circuits[i])
		if i == 1 {
			p.parts(circuits[0])
		}
	}
	if got := p.circuits.Len(); got != n {
		t.Fatalf("circuit memo holds %d circuits, want %d", got, n)
	}
	if _, ok := p.circuits.Lookup(circuits[1].Fingerprint(), nil); ok {
		t.Fatal("least recently used circuit survived eviction")
	}
	if _, ok := p.circuits.Lookup(circuits[0].Fingerprint(), nil); !ok {
		t.Fatal("refreshed circuit was evicted")
	}
}

// TestCircuitMemoCapacity: the capacity-tier memo is a plan.Cache
// bounded at plan.DefaultCapacity. After one more distinct capacity
// state than that it holds plan.DefaultCapacity states and the least
// recently used one is gone: the first, refreshed after the second was
// stored, survives, and the second does not.
func TestCircuitMemoCapacity(t *testing.T) {
	const n = plan.DefaultCapacity
	p := NewCloudQC(DefaultConfig())
	cl := cloud.NewRandom(20, 0.3, 20, 5, 1)
	states := make([][]int, n+1)
	visit := func(i int) { // one distinct free state per i
		q, k := i%cl.NumQPUs(), 1+i/cl.NumQPUs()
		if err := cl.Reserve(q, k); err != nil {
			t.Fatal(err)
		}
		states[i] = cl.FreeSnapshot()
		p.newCapacityTier(cl, 40)
		cl.Release(q, k)
	}
	for i := range states {
		visit(i)
		if i == 1 {
			visit(0)
		}
	}
	if got := p.tiers.Len(); got != n {
		t.Fatalf("tier memo holds %d states, want %d", got, n)
	}
	lookup := func(free []int) bool {
		_, ok := p.tiers.Lookup(tierKey{cloud: cl.Signature(), free: cloud.FreeSignature(free)}, free)
		return ok
	}
	if lookup(states[1]) {
		t.Fatal("least recently used capacity state survived eviction")
	}
	if !lookup(states[0]) {
		t.Fatal("refreshed capacity state was evicted")
	}
}

// TestCircuitMemoHandsOverGraph: the memo builds a circuit's
// interaction graph only on first sight and hands it to that caller,
// so a cold Place partitions the graph the memo took its edges from
// instead of building a second one.
func TestCircuitMemoHandsOverGraph(t *testing.T) {
	p := NewCloudQC(DefaultConfig())
	c := qlib.MustBuild("knn_n67")
	e, ig := p.parts(c)
	if ig == nil || !slices.Equal(e.edges, ig.Edges()) {
		t.Fatal("first sight: no interaction graph, or one that differs from the memoized edges")
	}
	if again, ig := p.parts(c); again != e || ig != nil {
		t.Fatal("second sight: want the same entry and no graph")
	}
}
