package place

import (
	"math/rand"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
)

// Random is the paper's random-placement baseline: start from a random
// QPU, random-walk the topology collecting QPUs until their combined
// free capacity covers the circuit, then scatter qubits uniformly over
// the collected set (respecting capacity).
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a seeded random placer.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Placer.
func (r *Random) Name() string { return "Random" }

// Place implements Placer.
func (r *Random) Place(cl *cloud.Cloud, c *circuit.Circuit) (*Placement, error) {
	size := c.NumQubits()
	if size > cl.TotalFreeComputing() {
		return nil, &ErrInfeasible{Circuit: c.Name, Need: size, Free: cl.TotalFreeComputing()}
	}
	set := r.randomQPUSet(cl, size)
	assign := make([]int, size)
	free := cl.FreeSnapshot()
	for qb := 0; qb < size; qb++ {
		// Rejection-sample a QPU from the set with room left.
		q := -1
		for tries := 0; tries < 4*len(set); tries++ {
			cand := set[r.rng.Intn(len(set))]
			if free[cand] > 0 {
				q = cand
				break
			}
		}
		if q < 0 {
			for _, cand := range set {
				if free[cand] > 0 {
					q = cand
					break
				}
			}
		}
		if q < 0 {
			return nil, &ErrInfeasible{Circuit: c.Name, Need: size, Free: cl.TotalFreeComputing()}
		}
		assign[qb] = q
		free[q]--
	}
	return &Placement{Circuit: c, QubitToQPU: assign}, nil
}

// randomQPUSet random-walks the topology from a random start, adding
// every newly visited QPU with free capacity until the set can host the
// circuit.
func (r *Random) randomQPUSet(cl *cloud.Cloud, size int) []int {
	n := cl.NumQPUs()
	start := r.rng.Intn(n)
	visited := make([]bool, n)
	var set []int
	freeSum := 0
	cur := start
	visited[cur] = true
	if cl.FreeComputing(cur) > 0 {
		set = append(set, cur)
		freeSum += cl.FreeComputing(cur)
	}
	for freeSum < size {
		nbs := cl.Topology().Arcs(cur)
		if len(nbs) == 0 {
			break
		}
		cur = nbs[r.rng.Intn(len(nbs))].To
		if !visited[cur] {
			visited[cur] = true
			if cl.FreeComputing(cur) > 0 {
				set = append(set, cur)
				freeSum += cl.FreeComputing(cur)
			}
		}
		if allVisited(visited) {
			break
		}
	}
	// Top up from any remaining QPUs if the walk stalled.
	for q := 0; q < n && freeSum < size; q++ {
		if !visited[q] && cl.FreeComputing(q) > 0 {
			visited[q] = true
			set = append(set, q)
			freeSum += cl.FreeComputing(q)
		}
	}
	return set
}

func allVisited(v []bool) bool {
	for _, b := range v {
		if !b {
			return false
		}
	}
	return true
}
