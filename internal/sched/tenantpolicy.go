package sched

import "math/rand"

// TenantWeightedPolicy splits each round's communication-qubit budget
// across tenants before falling back to CloudQC's per-gate priority
// order, bounding cross-tenant starvation at the EPR-allocation layer:
// a low-intensity tenant's gates cannot be crowded out of a round just
// because another tenant's wide circuit floods it with higher-priority
// requests.
//
// Phase 1 hands out first pairs by weighted deficit round-robin: each
// grant charges the receiving tenant 1/weight of normalized service, and
// the next grant goes to the backlogged tenant with the least normalized
// service (ties to the smaller tenant id), walking that tenant's
// requests in CloudQC priority order. A tenant with weight w therefore
// receives first pairs at w times the rate of a weight-1 tenant, and
// every tenant with a grantable request gets one before any tenant gets
// its last. Phase 2 spends the leftover budget exactly like
// CloudQCPolicy: water-filling extras onto already-granted gates by
// priority weight, tenant-blind.
//
// With a single tenant the deficit round-robin degenerates to "one pair
// per gate in priority order", making the policy bit-identical to
// CloudQCPolicy (see TestTenantWeightedSingleTenantMatchesCloudQC).
//
// The policy carries per-round scratch behind a stable tenant→slot
// table (the same flattening wfqOrder's admission path uses): grouping,
// deficits, and cursors are slot-indexed slices reused across rounds,
// so a round costs zero map operations beyond the slot lookups and,
// once the scratch is warm, a round of up to stackGrants requests
// through AllocateInto allocates nothing. Construct instances with
// NewTenantWeightedPolicy; the scratch makes a policy value stateful
// (though rounds are independent — only capacity persists), so
// concurrent controllers must not share one.
type TenantWeightedPolicy struct {
	// slots maps tenant id → scratch slot, append-only like WFQClock's
	// table; ids is the inverse. Memory scales with distinct tenants
	// seen, not rounds.
	slots map[int]int
	ids   []int
	// groups, served, and cursor are the slot-indexed per-round state:
	// each tenant's request indices in priority order, its normalized
	// service, and its walk position. round lists the slots active this
	// round, sorted by tenant id so ties keep breaking to the smaller
	// id; it is kept until the next round, which empties those slots'
	// groups before regrouping.
	groups [][]int32
	round  []int
	served []float64
	cursor []int
}

// NewTenantWeightedPolicy returns a tenant-weighted allocation policy
// with cold scratch.
func NewTenantWeightedPolicy() *TenantWeightedPolicy { return &TenantWeightedPolicy{} }

// Name implements Policy.
func (*TenantWeightedPolicy) Name() string { return "TenantWeighted" }

// Allocate implements Policy.
func (p *TenantWeightedPolicy) Allocate(reqs []Request, budget []int, rng *rand.Rand) map[NodeKey]int {
	return allocateMap(p, reqs, budget, rng)
}

func (p *TenantWeightedPolicy) allocate(reqs []Request, budget, grants []int, _ *rand.Rand) {
	var buf [stackGrants]int32
	order := priorityOrder(reqs, buf[:])

	// Group request indices by tenant slot, preserving priority order
	// within each group.
	if p.slots == nil {
		p.slots = make(map[int]int)
	}
	groups := p.groups
	for _, s := range p.round {
		groups[s] = groups[s][:0]
	}
	round := p.round[:0]
	for _, i := range order {
		r := &reqs[i]
		s, ok := p.slots[r.Tenant]
		if !ok {
			s = len(p.ids)
			p.slots[r.Tenant] = s
			p.ids = append(p.ids, r.Tenant)
			p.served = append(p.served, 0)
			p.cursor = append(p.cursor, 0)
		}
		for len(groups) <= s {
			groups = append(groups, nil)
		}
		if len(groups[s]) == 0 {
			round = append(round, s)
		}
		groups[s] = append(groups[s], i)
	}
	p.groups = groups
	p.round = round
	// Slots are allocated in first-seen order; insertion-sort this
	// round's slots by tenant id so the deficit round-robin keeps
	// iterating tenants in ascending id.
	for i := 1; i < len(round); i++ {
		s := round[i]
		k := i
		for k > 0 && p.ids[round[k-1]] > p.ids[s] {
			round[k] = round[k-1]
			k--
		}
		round[k] = s
	}

	// Phase 1: weighted deficit round-robin of first pairs. cursor[s]
	// walks tenant s's priority-ordered requests; budget only shrinks, so
	// a request blocked once stays blocked and the cursor never revisits
	// it.
	served, cursor := p.served, p.cursor
	for _, s := range round {
		served[s] = 0
		cursor[s] = 0
	}
	for {
		best := -1
		for _, s := range round {
			if cursor[s] >= len(groups[s]) {
				continue
			}
			if best < 0 || served[s] < served[best] {
				best = s
			}
		}
		if best < 0 {
			break
		}
		// Walk the tenant's remaining requests to its first grantable
		// one; a tenant whose cursor exhausts without a grant simply
		// drops out of the round-robin on the next pass.
		group := groups[best]
		for cursor[best] < len(group) {
			i := group[cursor[best]]
			cursor[best]++
			if grantOne(&reqs[i], budget) {
				grants[i] = 1
				served[best] += 1 / float64(tenantWeight(reqs[i]))
				break
			}
		}
	}

	// Phase 2: leftover budget follows CloudQC's per-gate priority order.
	waterFill(reqs, order, grants, budget)
}

// tenantWeight resolves a request's fair-share weight: non-positive
// means the default weight 1.
func tenantWeight(r Request) int {
	if r.TenantWeight <= 0 {
		return 1
	}
	return r.TenantWeight
}
