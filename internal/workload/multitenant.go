package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"cloudqc/internal/core"
)

// TenantSpec describes one tenant of a multi-tenant mix: its circuit
// pool, arrival process, scheduling weight, and deadline distribution.
type TenantSpec struct {
	// Tenant is the id stamped on the generated jobs; unique per mix.
	Tenant int
	// Priority is the tenant's scheduling weight (WFQ admission,
	// tenant-weighted EPR allocation); non-positive means 1.
	Priority int
	// Workload is the tenant's circuit pool.
	Workload Workload
	// Jobs is how many jobs the tenant submits.
	Jobs int
	// Process and MeanInterarrival parameterize the tenant's arrival
	// process (see Workload.Arrivals; empty Process means Poisson).
	Process          string
	MeanInterarrival float64
	// MinSlack and MaxSlack bound the per-job deadline slack, drawn
	// uniformly in [MinSlack, MaxSlack] and scaled by circuit depth:
	// deadline = arrival + depth × slack, in CX units. Both zero means
	// the tenant's jobs carry no deadlines.
	MinSlack, MaxSlack float64
}

// Default slack bounds for deadline-carrying tenant mixes: a job's
// deadline is its arrival plus depth × U[DefaultMinSlack,
// DefaultMaxSlack] CX — tight enough that overload misses deadlines,
// loose enough that an uncontended job meets them.
const (
	DefaultMinSlack = 20.0
	DefaultMaxSlack = 80.0
)

// MultiTenant samples one merged job stream from heterogeneous tenants:
// each tenant draws its own circuit sequence, arrival process, and
// deadline slacks from a per-tenant seeded stream, then the streams
// merge in arrival order with globally unique job IDs (ties broken by
// tenant id, so the merge is deterministic). Job Tenant/Priority/
// Deadline fields are stamped from the spec.
func MultiTenant(specs []TenantSpec, seed int64) ([]*core.Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: empty tenant mix")
	}
	seen := make(map[int]bool, len(specs))
	var all []*core.Job
	for i, spec := range specs {
		if seen[spec.Tenant] {
			return nil, fmt.Errorf("workload: duplicate tenant id %d", spec.Tenant)
		}
		seen[spec.Tenant] = true
		if spec.MinSlack < 0 || spec.MaxSlack < spec.MinSlack {
			return nil, fmt.Errorf("workload: tenant %d has invalid slack range [%v, %v]",
				spec.Tenant, spec.MinSlack, spec.MaxSlack)
		}
		ts := tenantSeed(seed, i)
		jobs, err := spec.Workload.Arrivals(spec.Process, spec.Jobs, spec.MeanInterarrival, ts)
		if err != nil {
			return nil, fmt.Errorf("workload: tenant %d: %w", spec.Tenant, err)
		}
		// Arrivals consumes ts (circuit draws) and ts+1 (arrival gaps);
		// slack draws get their own stream so adding a deadline range
		// never perturbs the circuits or arrivals.
		slackRNG := rand.New(rand.NewSource(ts + 2))
		for _, j := range jobs {
			j.Tenant = spec.Tenant
			j.Priority = spec.Priority
			if spec.MaxSlack > 0 {
				slack := spec.MinSlack + float64(slackRNG.Float64()*(spec.MaxSlack-spec.MinSlack))
				j.Deadline = j.Arrival + float64(float64(j.Circuit.Depth())*slack)
			}
		}
		all = append(all, jobs...)
	}
	// Merge in arrival order; per-tenant streams are already
	// arrival-sorted, and the (Arrival, Tenant) key makes the merge
	// deterministic across equal arrivals.
	sort.SliceStable(all, func(i, k int) bool {
		if all[i].Arrival != all[k].Arrival {
			return all[i].Arrival < all[k].Arrival
		}
		return all[i].Tenant < all[k].Tenant
	})
	for i, j := range all {
		j.ID = i
	}
	return all, nil
}

// DefaultTenantMix builds the three-tenant mix the SLO experiments use
// over one workload: priorities 1, 2, and 4, identical arrival processes
// at the given mean inter-arrival time, perTenant jobs each, and
// deadlines drawn with the default slack range.
func DefaultTenantMix(w Workload, perTenant int, process string, meanInterarrival float64) []TenantSpec {
	mix := make([]TenantSpec, 3)
	for i, prio := range []int{1, 2, 4} {
		mix[i] = TenantSpec{
			Tenant:           i,
			Priority:         prio,
			Workload:         w,
			Jobs:             perTenant,
			Process:          process,
			MeanInterarrival: meanInterarrival,
			MinSlack:         DefaultMinSlack,
			MaxSlack:         DefaultMaxSlack,
		}
	}
	return mix
}

// tenantSeed decorrelates per-tenant sample streams with a
// SplitMix64-style finalizer, mirroring the experiment runner's task
// seeding: the value depends only on (seed, tenant index), never on
// slice order or goroutine scheduling.
func tenantSeed(seed int64, tenant int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(tenant+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
