package place

import (
	"math/rand"
	"sort"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
)

// Genetic is the GA baseline: chromosomes are qubit→QPU assignments,
// fitness is 1/(1+communication cost), selection is 3-way tournament,
// crossover is uniform with capacity repair, and mutation moves single
// qubits.
type Genetic struct {
	// Population and Generations bound the search (defaults 30, 60).
	Population  int
	Generations int
	// MutationRate is the per-qubit mutation probability (default 0.02).
	MutationRate float64

	rng *rand.Rand
}

// NewGenetic returns a GA placer with default parameters.
func NewGenetic(seed int64) *Genetic {
	return &Genetic{
		Population:   30,
		Generations:  60,
		MutationRate: 0.02,
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// Name implements Placer.
func (g *Genetic) Name() string { return "GA" }

// Place implements Placer.
func (g *Genetic) Place(cl *cloud.Cloud, c *circuit.Circuit) (*Placement, error) {
	size := c.NumQubits()
	if size > cl.TotalFreeComputing() {
		return nil, &ErrInfeasible{Circuit: c.Name, Need: size, Free: cl.TotalFreeComputing()}
	}
	adj := interactionAdjacency(c)
	cost := func(assign []int) float64 {
		var total float64
		for qb, nbs := range adj {
			for _, nb := range nbs {
				if nb.q > qb {
					total += float64(nb.w * float64(cl.Distance(assign[qb], assign[nb.q])))
				}
			}
		}
		return total
	}

	pop := make([][]int, g.Population)
	costs := make([]float64, g.Population)
	seeder := NewRandom(g.rng.Int63())
	for i := range pop {
		pl, err := seeder.Place(cl, c)
		if err != nil {
			return nil, err
		}
		pop[i] = pl.QubitToQPU
		costs[i] = cost(pop[i])
	}

	bestIdx := argmin(costs)
	best := append([]int(nil), pop[bestIdx]...)
	bestCost := costs[bestIdx]

	for gen := 0; gen < g.Generations; gen++ {
		next := make([][]int, 0, g.Population)
		// Elitism: carry the champion forward unchanged.
		next = append(next, append([]int(nil), best...))
		for len(next) < g.Population {
			a := g.tournament(costs)
			b := g.tournament(costs)
			child := g.crossover(pop[a], pop[b])
			g.mutate(cl, child)
			g.repair(cl, child)
			next = append(next, child)
		}
		pop = next
		for i := range pop {
			costs[i] = cost(pop[i])
			if costs[i] < bestCost {
				bestCost = costs[i]
				copy(best, pop[i])
			}
		}
	}
	return &Placement{Circuit: c, QubitToQPU: best}, nil
}

func (g *Genetic) tournament(costs []float64) int {
	best := g.rng.Intn(len(costs))
	for i := 0; i < 2; i++ {
		c := g.rng.Intn(len(costs))
		if costs[c] < costs[best] {
			best = c
		}
	}
	return best
}

func (g *Genetic) crossover(a, b []int) []int {
	child := make([]int, len(a))
	for i := range child {
		if g.rng.Intn(2) == 0 {
			child[i] = a[i]
		} else {
			child[i] = b[i]
		}
	}
	return child
}

func (g *Genetic) mutate(cl *cloud.Cloud, assign []int) {
	for qb := range assign {
		if g.rng.Float64() < g.MutationRate {
			assign[qb] = g.rng.Intn(cl.NumQPUs())
		}
	}
}

// repair moves qubits off over-capacity QPUs onto the freest ones so the
// chromosome satisfies the capacity constraint.
func (g *Genetic) repair(cl *cloud.Cloud, assign []int) {
	free := cl.FreeSnapshot()
	load := make([]int, cl.NumQPUs())
	for _, q := range assign {
		load[q]++
	}
	type over struct{ qpu, excess int }
	var overs []over
	for q := range load {
		if load[q] > free[q] {
			overs = append(overs, over{qpu: q, excess: load[q] - free[q]})
		}
	}
	if len(overs) == 0 {
		return
	}
	sort.Slice(overs, func(i, j int) bool { return overs[i].qpu < overs[j].qpu })
	for _, o := range overs {
		moved := 0
		for qb := range assign {
			if moved == o.excess {
				break
			}
			if assign[qb] != o.qpu {
				continue
			}
			dest := -1
			for q := range load {
				if load[q] < free[q] && (dest < 0 || free[q]-load[q] > free[dest]-load[dest]) {
					dest = q
				}
			}
			if dest < 0 {
				return // nowhere to move; caller's capacity check prevents this
			}
			assign[qb] = dest
			load[o.qpu]--
			load[dest]++
			moved++
		}
	}
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
