package sched

import (
	"cmp"
	"math/rand"
	"slices"
)

// NodeKey identifies a remote gate within a (possibly multi-job) round:
// Job is an opaque job index assigned by the caller, Node the remote DAG
// node id.
type NodeKey struct {
	Job  int
	Node int
}

// Request asks the allocation policy for communication qubits on behalf
// of one ready remote gate. Within one round every Key must be unique:
// AllocateInto reads a map-returning policy's grants back by Key. The
// core controller, Run, RunMultipath and RunFidelity all build one
// request per ready node, keyed by that node's job and id.
type Request struct {
	Key NodeKey
	// Path lists the QPUs whose communication qubits one EPR pair for
	// this gate consumes (endpoints plus swap intermediates).
	Path []int
	// Priority is the gate's remote-DAG priority (longest path to leaf).
	Priority int
	// Tenant identifies the submitting tenant for tenant-aware policies;
	// the zero value is the single default tenant. Tenant-oblivious
	// policies ignore it.
	Tenant int
	// TenantWeight is the tenant's fair-share weight (non-positive means
	// 1). Only tenant-aware policies read it.
	TenantWeight int
}

// Policy divides each round's communication qubit budget among competing
// ready gates. Implementations must never allocate beyond budget and
// must be deterministic given the same rng state. The built-in policies
// leave reqs as they found it; an external implementation may reorder
// it, since AllocateInto hands it a copy. Callers must not pass two
// requests with the same Key in one round: grants are keyed by Key.
//
// Rounds run through AllocateInto, which takes the built-in policies'
// positional path and uses Allocate only for external implementations.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Allocate returns EPR attempt pairs per requesting gate. budget is
	// the per-QPU free communication qubit count for this round and is
	// consumed in place. The returned map holds only keys granted at
	// least one pair, and the caller owns it.
	Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int
}

// positional is the allocation path every built-in policy implements:
// allocate writes the pairs granted to reqs[i] into grants[i], which
// arrives zeroed with len(reqs) entries, consumes budget in place and
// leaves reqs unmodified.
type positional interface {
	allocate(reqs []Request, budget, grants []int, rng *rand.Rand)
}

// AllocateInto runs one allocation round of p: it writes the pairs
// granted to reqs[i] into grants[i], overwriting grants[:len(reqs)], and
// consumes budget in place. reqs is left unmodified. A built-in policy
// allocates nothing for a round of up to stackGrants requests (once a
// TenantWeightedPolicy's scratch is warm); any other Policy runs its
// Allocate on a copy of reqs and has its map read back by Key.
func AllocateInto(p Policy, reqs []Request, budget, grants []int, rng *rand.Rand) {
	grants = grants[:len(reqs)]
	clear(grants)
	if pp, ok := p.(positional); ok {
		pp.allocate(reqs, budget, grants, rng)
		return
	}
	alloc := p.Allocate(slices.Clone(reqs), budget, rng)
	for i := range reqs {
		grants[i] = alloc[reqs[i].Key]
	}
}

// allocateMap is the map form of a built-in policy's positional round:
// the body of each built-in's exported Allocate.
func allocateMap(p positional, reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	grants := make([]int, len(reqs))
	p.allocate(reqs, budget, grants, rng)
	return grantMap(reqs, grants)
}

// stackGrants is the largest round whose request permutation lives in a
// stack buffer; measured rounds average about six requests, so larger
// rounds are rare enough to pay for a heap slice.
const stackGrants = 64

// identity returns the permutation 0..n-1 in buf[:n] when the round
// fits, in a fresh slice otherwise.
func identity(buf []int32, n int) []int32 {
	var perm []int32
	if n <= len(buf) {
		perm = buf[:n]
	} else {
		perm = make([]int32, n)
	}
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// priorityOrder returns the indices of reqs by descending priority,
// breaking ties by job then node id, in buf when the round fits. Keys
// are unique within a round, so this is a total order and every sort
// algorithm yields the same permutation.
func priorityOrder(reqs []Request, buf []int32) []int32 {
	order := identity(buf, len(reqs))
	slices.SortFunc(order, func(a, b int32) int { return comparePriority(&reqs[a], &reqs[b]) })
	return order
}

// grantMap builds the map Allocate returns from per-request grant
// counts, holding only the requests granted at least one pair.
func grantMap(reqs []Request, grants []int) map[NodeKey]int {
	n := 0
	for _, g := range grants {
		if g > 0 {
			n++
		}
	}
	alloc := make(map[NodeKey]int, n)
	for i, g := range grants {
		if g > 0 {
			alloc[reqs[i].Key] = g
		}
	}
	return alloc
}

// grantOne consumes one communication qubit on every QPU of the request
// path if all have budget, returning whether the grant happened.
func grantOne(r *Request, budget []int) bool {
	if !canGrant(r, budget) {
		return false
	}
	for _, q := range r.Path {
		budget[q]--
	}
	return true
}

func canGrant(r *Request, budget []int) bool {
	for _, q := range r.Path {
		if budget[q] < 1 {
			return false
		}
	}
	return true
}

// comparePriority orders a before b when it has the higher priority,
// then the smaller key.
func comparePriority(a, b *Request) int {
	if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
		return c
	}
	return compareKeys(a.Key, b.Key)
}

// compareKeys orders keys by job then node id.
func compareKeys(a, b NodeKey) int {
	if c := cmp.Compare(a.Job, b.Job); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// CloudQCPolicy is the paper's scheduler: every ready gate first gets one
// attempt pair when possible (starvation freedom), then the remaining
// budget is water-filled proportionally to priority weight, so critical
// path gates accumulate redundant pairs and tolerate EPR failures.
type CloudQCPolicy struct{}

// Name implements Policy.
func (CloudQCPolicy) Name() string { return "CloudQC" }

// Allocate implements Policy.
func (p CloudQCPolicy) Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	return allocateMap(p, reqs, budget, rng)
}

func (CloudQCPolicy) allocate(reqs []Request, budget, grants []int, _ *rand.Rand) {
	var buf [stackGrants]int32
	order := priorityOrder(reqs, buf[:])
	for _, i := range order {
		if grantOne(&reqs[i], budget) {
			grants[i] = 1
		}
	}
	waterFill(reqs, order, grants, budget)
}

// waterFill spends the remaining budget on extra pairs: repeatedly grant
// +1 to the already-granted request minimizing granted/weight, weight =
// priority + 1, so critical-path gates accumulate redundant pairs. Ties
// resolve to the request earliest in order, the round's priority
// permutation, which waterFill consumes as its working list. Requests
// with no pairs are skipped — they were starved by budget and extras
// would also fail. Budget only shrinks, so a request that cannot be
// granted once never can again: each pass drops such requests from the
// live list instead of rescanning them.
func waterFill(reqs []Request, order []int32, grants, budget []int) {
	live := order[:0]
	for _, i := range order {
		if grants[i] > 0 {
			live = append(live, i)
		}
	}
	for {
		best := int32(-1)
		var bestRatio float64
		n := 0
		for _, i := range live {
			if !canGrant(&reqs[i], budget) {
				continue
			}
			live[n] = i
			n++
			ratio := float64(grants[i]) / float64(reqs[i].Priority+1)
			if best < 0 || ratio < bestRatio {
				best, bestRatio = i, ratio
			}
		}
		live = live[:n]
		if best < 0 {
			return
		}
		grantOne(&reqs[best], budget)
		grants[best]++
	}
}

// GreedyPolicy always gives the highest-priority gate every pair its
// path can absorb before considering the next gate — the paper's worst
// performer, since stacked pairs have diminishing returns while other
// gates starve.
type GreedyPolicy struct{}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "Greedy" }

// Allocate implements Policy.
func (p GreedyPolicy) Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	return allocateMap(p, reqs, budget, rng)
}

func (GreedyPolicy) allocate(reqs []Request, budget, grants []int, _ *rand.Rand) {
	var buf [stackGrants]int32
	for _, i := range priorityOrder(reqs, buf[:]) {
		for grantOne(&reqs[i], budget) {
			grants[i]++
		}
	}
}

// AveragePolicy distributes pairs evenly: round-robin single grants in
// deterministic node order until the budget is exhausted.
type AveragePolicy struct{}

// Name implements Policy.
func (AveragePolicy) Name() string { return "Average" }

// Allocate implements Policy.
func (p AveragePolicy) Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	return allocateMap(p, reqs, budget, rng)
}

func (AveragePolicy) allocate(reqs []Request, budget, grants []int, _ *rand.Rand) {
	var buf [stackGrants]int32
	order := identity(buf[:], len(reqs))
	slices.SortFunc(order, func(a, b int32) int { return compareKeys(reqs[a].Key, reqs[b].Key) })
	for {
		granted := false
		for _, i := range order {
			if grantOne(&reqs[i], budget) {
				grants[i]++
				granted = true
			}
		}
		if !granted {
			return
		}
	}
}

// RandomPolicy hands out single pairs to uniformly random ready gates
// until no grant is possible.
type RandomPolicy struct{}

// Name implements Policy.
func (RandomPolicy) Name() string { return "Random" }

// Allocate implements Policy.
func (p RandomPolicy) Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	return allocateMap(p, reqs, budget, rng)
}

// allocate draws over an index list that starts in caller order, so
// the same reqs and rng state always give the same allocation.
func (RandomPolicy) allocate(reqs []Request, budget, grants []int, rng *rand.Rand) {
	var buf [stackGrants]int32
	live := identity(buf[:], len(reqs))
	for len(live) > 0 {
		j := rng.Intn(len(live))
		if i := live[j]; grantOne(&reqs[i], budget) {
			grants[i]++
			continue
		}
		// Path exhausted: drop this request from the lottery.
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
}
