package sched

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func req(job, node, prio int, path ...int) Request {
	return Request{Key: NodeKey{Job: job, Node: node}, Path: path, Priority: prio}
}

func sumAlloc(alloc map[NodeKey]int) int {
	total := 0
	for _, v := range alloc {
		total += v
	}
	return total
}

// consumption verifies no QPU's budget went negative and returns usage.
func checkBudget(t *testing.T, alloc map[NodeKey]int, reqs []Request, original []int) {
	t.Helper()
	used := make([]int, len(original))
	for _, r := range reqs {
		for _, q := range r.Path {
			used[q] += alloc[r.Key]
		}
	}
	for q := range used {
		if used[q] > original[q] {
			t.Fatalf("QPU %d used %d of %d", q, used[q], original[q])
		}
	}
}

func TestCloudQCStarvationFreedom(t *testing.T) {
	// Two gates on the same QPU pair with very different priorities:
	// both must get at least one pair when the budget allows.
	reqs := []Request{req(0, 0, 10, 0, 1), req(0, 1, 0, 0, 1)}
	budget := []int{5, 5}
	orig := append([]int(nil), budget...)
	alloc := CloudQCPolicy{}.Allocate(reqs, budget, rand.New(rand.NewSource(1)))
	if alloc[NodeKey{0, 0}] < 1 || alloc[NodeKey{0, 1}] < 1 {
		t.Fatalf("starvation: alloc = %v", alloc)
	}
	checkBudget(t, alloc, reqs, orig)
}

func TestCloudQCPriorityGetsMore(t *testing.T) {
	reqs := []Request{req(0, 0, 9, 0, 1), req(0, 1, 0, 0, 1)}
	budget := []int{10, 10}
	alloc := CloudQCPolicy{}.Allocate(reqs, budget, rand.New(rand.NewSource(1)))
	if alloc[NodeKey{0, 0}] <= alloc[NodeKey{0, 1}] {
		t.Fatalf("high priority should receive more: %v", alloc)
	}
	if sumAlloc(alloc) != 10 {
		t.Fatalf("full budget should be used: %v", alloc)
	}
}

func TestGreedyTakesAll(t *testing.T) {
	reqs := []Request{req(0, 0, 5, 0, 1), req(0, 1, 1, 0, 1)}
	budget := []int{4, 4}
	alloc := GreedyPolicy{}.Allocate(reqs, budget, rand.New(rand.NewSource(1)))
	if alloc[NodeKey{0, 0}] != 4 {
		t.Fatalf("greedy should give everything to top priority: %v", alloc)
	}
	if alloc[NodeKey{0, 1}] != 0 {
		t.Fatalf("greedy should starve the rest this round: %v", alloc)
	}
}

func TestGreedySpillsToDisjointPaths(t *testing.T) {
	// Top priority saturates QPUs 0-1; a gate on QPUs 2-3 still gets
	// pairs from its own budget.
	reqs := []Request{req(0, 0, 5, 0, 1), req(0, 1, 1, 2, 3)}
	budget := []int{2, 2, 3, 3}
	alloc := GreedyPolicy{}.Allocate(reqs, budget, rand.New(rand.NewSource(1)))
	if alloc[NodeKey{0, 0}] != 2 || alloc[NodeKey{0, 1}] != 3 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestAverageEvenSplit(t *testing.T) {
	reqs := []Request{req(0, 0, 9, 0, 1), req(0, 1, 0, 0, 1)}
	budget := []int{6, 6}
	alloc := AveragePolicy{}.Allocate(reqs, budget, rand.New(rand.NewSource(1)))
	if alloc[NodeKey{0, 0}] != 3 || alloc[NodeKey{0, 1}] != 3 {
		t.Fatalf("average should split evenly regardless of priority: %v", alloc)
	}
}

func TestRandomExhaustsBudget(t *testing.T) {
	reqs := []Request{req(0, 0, 2, 0, 1), req(0, 1, 1, 0, 1)}
	budget := []int{4, 4}
	orig := append([]int(nil), budget...)
	alloc := RandomPolicy{}.Allocate(reqs, budget, rand.New(rand.NewSource(3)))
	if sumAlloc(alloc) != 4 {
		t.Fatalf("random should hand out the full shared budget: %v", alloc)
	}
	checkBudget(t, alloc, reqs, orig)
}

func TestMultiHopConsumesIntermediates(t *testing.T) {
	// One gate across a 2-hop path 0-1-2: each pair consumes a qubit on
	// all three QPUs.
	reqs := []Request{req(0, 0, 1, 0, 1, 2)}
	budget := []int{3, 2, 3}
	alloc := GreedyPolicy{}.Allocate(reqs, budget, rand.New(rand.NewSource(1)))
	if alloc[NodeKey{0, 0}] != 2 {
		t.Fatalf("allocation limited by intermediate QPU: %v", alloc)
	}
	if budget[1] != 0 {
		t.Fatalf("intermediate budget = %d, want 0", budget[1])
	}
}

func TestPoliciesDeterministicGivenSeed(t *testing.T) {
	reqs := []Request{
		req(0, 0, 3, 0, 1), req(0, 1, 2, 1, 2), req(1, 0, 1, 0, 2),
	}
	for _, p := range []Policy{CloudQCPolicy{}, GreedyPolicy{}, AveragePolicy{}, RandomPolicy{}} {
		b1 := []int{4, 4, 4}
		b2 := []int{4, 4, 4}
		a1 := p.Allocate(reqs, b1, rand.New(rand.NewSource(9)))
		a2 := p.Allocate(reqs, b2, rand.New(rand.NewSource(9)))
		for k, v := range a1 {
			if a2[k] != v {
				t.Fatalf("%s not deterministic: %v vs %v", p.Name(), a1, a2)
			}
		}
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[string]Policy{
		"CloudQC": CloudQCPolicy{},
		"Greedy":  GreedyPolicy{},
		"Average": AveragePolicy{},
		"Random":  RandomPolicy{},
	}
	for name, p := range want {
		if p.Name() != name {
			t.Fatalf("Name() = %q, want %q", p.Name(), name)
		}
	}
}

// Property: no policy ever over-consumes any QPU's budget, and every
// allocation is non-negative.
func TestQuickPoliciesRespectBudget(t *testing.T) {
	policies := []Policy{CloudQCPolicy{}, GreedyPolicy{}, AveragePolicy{}, RandomPolicy{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nQPU := 3 + rng.Intn(4)
		var reqs []Request
		for i := 0; i < 2+rng.Intn(6); i++ {
			a := rng.Intn(nQPU)
			b := rng.Intn(nQPU)
			if a == b {
				b = (b + 1) % nQPU
			}
			reqs = append(reqs, req(0, i, rng.Intn(5), a, b))
		}
		for _, p := range policies {
			budget := make([]int, nQPU)
			orig := make([]int, nQPU)
			for i := range budget {
				budget[i] = 1 + rng.Intn(6)
				orig[i] = budget[i]
			}
			alloc := p.Allocate(reqs, budget, rand.New(rand.NewSource(seed)))
			used := make([]int, nQPU)
			for _, r := range reqs {
				if alloc[r.Key] < 0 {
					return false
				}
				for _, q := range r.Path {
					used[q] += alloc[r.Key]
				}
			}
			for q := range used {
				if used[q] > orig[q] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The map-based allocation policies below are the reference the
// slice-based ones in policy.go and tenantpolicy.go must match exactly:
// grants counted in a map keyed by NodeKey, reflection sorts, and a
// water-fill that rescans every request on every step.

func refSortByPriority(reqs []Request) {
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Priority != reqs[j].Priority {
			return reqs[i].Priority > reqs[j].Priority
		}
		if reqs[i].Key.Job != reqs[j].Key.Job {
			return reqs[i].Key.Job < reqs[j].Key.Job
		}
		return reqs[i].Key.Node < reqs[j].Key.Node
	})
}

func refCanGrant(r Request, budget []int) bool {
	for _, q := range r.Path {
		if budget[q] < 1 {
			return false
		}
	}
	return true
}

func refGrantOne(r Request, budget []int) bool {
	if !refCanGrant(r, budget) {
		return false
	}
	for _, q := range r.Path {
		budget[q]--
	}
	return true
}

func refWaterFill(ordered []Request, alloc map[NodeKey]int, budget []int) {
	for {
		bestIdx := -1
		var bestRatio float64
		for i, r := range ordered {
			if alloc[r.Key] == 0 {
				continue
			}
			if !refCanGrant(r, budget) {
				continue
			}
			ratio := float64(alloc[r.Key]) / float64(r.Priority+1)
			if bestIdx < 0 || ratio < bestRatio {
				bestIdx, bestRatio = i, ratio
			}
		}
		if bestIdx < 0 {
			break
		}
		refGrantOne(ordered[bestIdx], budget)
		alloc[ordered[bestIdx].Key]++
	}
}

func refCloudQC(reqs []Request, budget []int, _ *rand.Rand) map[NodeKey]int {
	alloc := make(map[NodeKey]int, len(reqs))
	refSortByPriority(reqs)
	for _, r := range reqs {
		if refGrantOne(r, budget) {
			alloc[r.Key]++
		}
	}
	refWaterFill(reqs, alloc, budget)
	return alloc
}

func refGreedy(reqs []Request, budget []int, _ *rand.Rand) map[NodeKey]int {
	alloc := make(map[NodeKey]int, len(reqs))
	refSortByPriority(reqs)
	for _, r := range reqs {
		for refGrantOne(r, budget) {
			alloc[r.Key]++
		}
	}
	return alloc
}

func refAverage(reqs []Request, budget []int, _ *rand.Rand) map[NodeKey]int {
	alloc := make(map[NodeKey]int, len(reqs))
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Key.Job != reqs[j].Key.Job {
			return reqs[i].Key.Job < reqs[j].Key.Job
		}
		return reqs[i].Key.Node < reqs[j].Key.Node
	})
	for {
		granted := false
		for _, r := range reqs {
			if refGrantOne(r, budget) {
				alloc[r.Key]++
				granted = true
			}
		}
		if !granted {
			break
		}
	}
	return alloc
}

// refTenantWeighted is the weighted deficit round-robin of first pairs
// over per-tenant maps and a sorted tenant list, then refWaterFill.
func refTenantWeighted(reqs []Request, budget []int, _ *rand.Rand) map[NodeKey]int {
	alloc := make(map[NodeKey]int, len(reqs))
	refSortByPriority(reqs)
	groups := make(map[int][]Request)
	for _, r := range reqs {
		groups[r.Tenant] = append(groups[r.Tenant], r)
	}
	tenants := slices.Sorted(maps.Keys(groups))
	served := make(map[int]float64)
	cursor := make(map[int]int)
	for {
		best, found := 0, false
		for _, t := range tenants {
			if cursor[t] >= len(groups[t]) {
				continue
			}
			if !found || served[t] < served[best] {
				best, found = t, true
			}
		}
		if !found {
			break
		}
		for cursor[best] < len(groups[best]) {
			r := groups[best][cursor[best]]
			cursor[best]++
			if refGrantOne(r, budget) {
				alloc[r.Key]++
				served[best] += 1 / float64(tenantWeight(r))
				break
			}
		}
	}
	refWaterFill(reqs, alloc, budget)
	return alloc
}

// randomRound draws n requests with unique keys over 20 QPUs: 1–3-hop
// paths of distinct QPUs, priorities 0–3 so ties are common, and 1–4
// tenants with fixed weights 1–8, plus per-QPU budgets 0–5.
func randomRound(rng *rand.Rand, n int) ([]Request, []int) {
	const nQPU = 20
	weights := make([]int, 1+rng.Intn(4))
	for t := range weights {
		weights[t] = 1 + rng.Intn(8)
	}
	keys := make(map[NodeKey]bool, n)
	reqs := make([]Request, 0, n)
	for len(reqs) < n {
		k := NodeKey{Job: rng.Intn(4), Node: rng.Intn(3 * n)}
		if keys[k] {
			continue
		}
		keys[k] = true
		tenant := rng.Intn(len(weights))
		reqs = append(reqs, Request{
			Key:          k,
			Path:         rng.Perm(nQPU)[:2+rng.Intn(3)],
			Priority:     rng.Intn(4),
			Tenant:       tenant,
			TenantWeight: weights[tenant],
		})
	}
	budget := make([]int, nQPU)
	for q := range budget {
		budget[q] = rng.Intn(6)
	}
	return reqs, budget
}

// refRandom is the map-based reference lottery: it draws over a private
// copy of reqs, swap-removing exhausted requests.
func refRandom(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	alloc := make(map[NodeKey]int, len(reqs))
	live := append([]Request(nil), reqs...)
	for len(live) > 0 {
		i := rng.Intn(len(live))
		if refGrantOne(live[i], budget) {
			alloc[live[i].Key]++
			continue
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return alloc
}

// reversingPolicy is an external, map-only Policy: it reverses reqs in
// place before delegating, which AllocateInto's copy must absorb.
type reversingPolicy struct{ inner Policy }

func (p reversingPolicy) Name() string { return "reversed " + p.inner.Name() }

func (p reversingPolicy) Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	slices.Reverse(reqs)
	return p.inner.Allocate(reqs, budget, rng)
}

// sameRequests reports whether two request slices hold equal requests
// in the same order.
func sameRequests(a, b []Request) bool {
	return slices.EqualFunc(a, b, func(x, y Request) bool {
		return x.Key == y.Key && slices.Equal(x.Path, y.Path) && x.Priority == y.Priority &&
			x.Tenant == y.Tenant && x.TenantWeight == y.TenantWeight
	})
}

// matchesReference runs every policy and its map-based reference on
// copies of one round, Random's on the same rng seed, and reports the
// first difference. Each policy runs twice: its map-returning Allocate
// must return the reference's map, and AllocateInto must write the
// reference's grants by position and leave reqs unmodified. Both must
// leave the reference's residual budget. The sorting policies also run
// behind reversingPolicy, through AllocateInto's map adapter.
func matchesReference(tw *TenantWeightedPolicy, reqs []Request, budget []int) error {
	const seed = 5
	pairs := []struct {
		p   Policy
		ref func([]Request, []int, *rand.Rand) map[NodeKey]int
	}{
		{CloudQCPolicy{}, refCloudQC},
		{tw, refTenantWeighted},
		{GreedyPolicy{}, refGreedy},
		{AveragePolicy{}, refAverage},
		{RandomPolicy{}, refRandom},
		{reversingPolicy{CloudQCPolicy{}}, refCloudQC},
		{reversingPolicy{tw}, refTenantWeighted},
		{reversingPolicy{GreedyPolicy{}}, refGreedy},
		{reversingPolicy{AveragePolicy{}}, refAverage},
	}
	for _, c := range pairs {
		wantBudget := slices.Clone(budget)
		want := c.ref(slices.Clone(reqs), wantBudget, rand.New(rand.NewSource(seed)))

		gotBudget := slices.Clone(budget)
		got := c.p.Allocate(slices.Clone(reqs), gotBudget, rand.New(rand.NewSource(seed)))
		if !maps.Equal(got, want) {
			return fmt.Errorf("%s: alloc %v, reference %v", c.p.Name(), got, want)
		}
		if !slices.Equal(gotBudget, wantBudget) {
			return fmt.Errorf("%s: residual budget %v, reference %v", c.p.Name(), gotBudget, wantBudget)
		}

		in := slices.Clone(reqs)
		gotBudget = slices.Clone(budget)
		grants := make([]int, len(in))
		for i := range grants {
			grants[i] = -1 // AllocateInto must overwrite every entry
		}
		AllocateInto(c.p, in, gotBudget, grants, rand.New(rand.NewSource(seed)))
		for i, r := range reqs {
			if grants[i] != want[r.Key] {
				return fmt.Errorf("%s: AllocateInto grants[%d] (%v) = %d, reference %d",
					c.p.Name(), i, r.Key, grants[i], want[r.Key])
			}
		}
		if !slices.Equal(gotBudget, wantBudget) {
			return fmt.Errorf("%s: AllocateInto residual budget %v, reference %v", c.p.Name(), gotBudget, wantBudget)
		}
		if !sameRequests(in, reqs) {
			return fmt.Errorf("%s: AllocateInto modified reqs", c.p.Name())
		}
	}
	return nil
}

// TestAllocateMatchesMapReference: on random rounds every policy, in
// map form and through AllocateInto, grants exactly what the reference
// does and leaves exactly its residual budget. One TenantWeightedPolicy
// serves every round, so stale scratch from an earlier round would
// show. Sizes 64 and 65 straddle the stack buffer the request
// permutation uses.
func TestAllocateMatchesMapReference(t *testing.T) {
	tw := NewTenantWeightedPolicy()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs, budget := randomRound(rng, rng.Intn(31))
		if err := matchesReference(tw, reqs, budget); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{stackGrants, stackGrants + 1} {
		for rep := 0; rep < 20; rep++ {
			reqs, budget := randomRound(rng, n)
			for q := range budget {
				budget[q] += 10 // room for every request to be granted
			}
			if err := matchesReference(tw, reqs, budget); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

// TestAllocateIntoRoundAllocatesNothing: a six-request round through
// AllocateInto, the controller's per-round call, allocates nothing for
// any built-in policy. AllocsPerRun's warm-up round warms
// TenantWeighted's scratch.
func TestAllocateIntoRoundAllocatesNothing(t *testing.T) {
	reqs := []Request{
		req(0, 3, 7, 0, 4), req(0, 9, 3, 4, 11, 2), req(1, 1, 7, 7, 13),
		req(1, 5, 0, 13, 0), req(2, 2, 5, 15, 6, 19), req(2, 8, 2, 19, 7),
	}
	for i := range reqs {
		reqs[i].Tenant = reqs[i].Key.Job
		reqs[i].TenantWeight = 1 + reqs[i].Key.Job
	}
	budget := make([]int, 20)
	grants := make([]int, len(reqs))
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Policy{CloudQCPolicy{}, NewTenantWeightedPolicy(), GreedyPolicy{}, AveragePolicy{}, RandomPolicy{}} {
		allocs := testing.AllocsPerRun(100, func() {
			for q := range budget {
				budget[q] = 5
			}
			AllocateInto(p, reqs, budget, grants, rng)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per round, want 0", p.Name(), allocs)
		}
	}
}
