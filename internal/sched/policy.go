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
// of one ready remote gate. Within one round every Key is unique: the
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
// must be deterministic given the same rng state. Allocate may reorder
// reqs in place — callers hand over ownership of the slice for the round
// and must not rely on its order afterwards. Callers must not pass two
// requests with the same Key in one round: the policies count grants per
// request and key the result by Key.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Allocate returns EPR attempt pairs per requesting gate. budget is
	// the per-QPU free communication qubit count for this round and is
	// consumed in place, as is the order of reqs. The returned map holds
	// only keys granted at least one pair, and the caller owns it.
	Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int
}

// stackGrants is the largest round whose per-request grant counts live
// in a stack buffer; measured rounds average about six requests, so
// larger rounds are rare enough to pay for a heap slice.
const stackGrants = 64

// grantScratch returns n zeroed per-request counters: buf[:n] when the
// round fits, a fresh slice otherwise. buf must be zeroed.
func grantScratch(buf []int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
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

// sortByPriority orders requests by descending priority, breaking ties
// by job then node id. Keys are unique within a round, so this is a
// total order and every sort algorithm yields the same result. It sorts
// in place: Allocate owns its request slice for the round.
func sortByPriority(reqs []Request) {
	slices.SortFunc(reqs, func(a, b Request) int { return comparePriority(&a, &b) })
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
func (CloudQCPolicy) Allocate(reqs []Request, budget []int, _ *rand.Rand) map[NodeKey]int {
	var buf [stackGrants]int
	grants := grantScratch(buf[:], len(reqs))
	sortByPriority(reqs)
	for i := range reqs {
		if grantOne(&reqs[i], budget) {
			grants[i] = 1
		}
	}
	waterFill(reqs, grants, budget)
	return grantMap(reqs, grants)
}

// waterFill spends the remaining budget on extra pairs: repeatedly grant
// +1 to the already-granted request minimizing granted/weight, weight =
// priority + 1, so critical-path gates accumulate redundant pairs. Ties
// resolve to the earliest request in ordered. grants[i] counts the pairs
// of ordered[i]. Requests with no pairs are skipped — they were starved
// by budget and extras would also fail. Budget only shrinks, so a
// request that cannot be granted once never can again: each pass drops
// such requests from the live list instead of rescanning them.
func waterFill(ordered []Request, grants, budget []int) {
	var buf [stackGrants]int
	live := grantScratch(buf[:], len(ordered))[:0]
	for i, g := range grants {
		if g > 0 {
			live = append(live, i)
		}
	}
	for {
		bestIdx := -1
		var bestRatio float64
		n := 0
		for _, i := range live {
			if !canGrant(&ordered[i], budget) {
				continue
			}
			live[n] = i
			n++
			ratio := float64(grants[i]) / float64(ordered[i].Priority+1)
			if bestIdx < 0 || ratio < bestRatio {
				bestIdx, bestRatio = i, ratio
			}
		}
		live = live[:n]
		if bestIdx < 0 {
			return
		}
		grantOne(&ordered[bestIdx], budget)
		grants[bestIdx]++
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
func (GreedyPolicy) Allocate(reqs []Request, budget []int, _ *rand.Rand) map[NodeKey]int {
	var buf [stackGrants]int
	grants := grantScratch(buf[:], len(reqs))
	sortByPriority(reqs)
	for i := range reqs {
		for grantOne(&reqs[i], budget) {
			grants[i]++
		}
	}
	return grantMap(reqs, grants)
}

// AveragePolicy distributes pairs evenly: round-robin single grants in
// deterministic node order until the budget is exhausted.
type AveragePolicy struct{}

// Name implements Policy.
func (AveragePolicy) Name() string { return "Average" }

// Allocate implements Policy.
func (AveragePolicy) Allocate(reqs []Request, budget []int, _ *rand.Rand) map[NodeKey]int {
	var buf [stackGrants]int
	grants := grantScratch(buf[:], len(reqs))
	slices.SortFunc(reqs, func(a, b Request) int { return compareKeys(a.Key, b.Key) })
	for {
		granted := false
		for i := range reqs {
			if grantOne(&reqs[i], budget) {
				grants[i]++
				granted = true
			}
		}
		if !granted {
			break
		}
	}
	return grantMap(reqs, grants)
}

// RandomPolicy hands out single pairs to uniformly random ready gates
// until no grant is possible.
type RandomPolicy struct{}

// Name implements Policy.
func (RandomPolicy) Name() string { return "Random" }

// Allocate implements Policy.
func (RandomPolicy) Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	alloc := make(map[NodeKey]int, len(reqs))
	// Unlike the sorting policies, the lottery's outcome depends on the
	// working list's order, so it keeps a private copy: swap-removing
	// from reqs itself would make a repeat call with the same slice and
	// rng state produce a different allocation.
	live := append([]Request(nil), reqs...)
	for len(live) > 0 {
		i := rng.Intn(len(live))
		if grantOne(&live[i], budget) {
			alloc[live[i].Key]++
			continue
		}
		// Path exhausted: drop this request from the lottery.
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return alloc
}
