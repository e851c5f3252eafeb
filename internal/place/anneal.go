package place

import (
	"math"
	"math/rand"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
)

// Annealer is the simulated-annealing baseline following Mao et al.
// (INFOCOM 2023): states are full qubit→QPU assignments, neighbors move
// one qubit or swap two, energy is the communication cost, and the
// temperature decays geometrically. Move deltas are evaluated
// incrementally so large circuits stay fast.
type Annealer struct {
	// Iterations is the number of proposed moves (default 20000).
	Iterations int
	// InitialTemp and Cooling control the schedule (defaults 50, 0.9995).
	InitialTemp float64
	Cooling     float64

	rng *rand.Rand
}

// NewAnnealer returns an annealer with the default schedule.
func NewAnnealer(seed int64) *Annealer {
	return &Annealer{
		Iterations:  20000,
		InitialTemp: 50,
		Cooling:     0.9995,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Name implements Placer.
func (a *Annealer) Name() string { return "SA" }

// Place implements Placer.
func (a *Annealer) Place(cl *cloud.Cloud, c *circuit.Circuit) (*Placement, error) {
	start := NewRandom(a.rng.Int63())
	pl, err := start.Place(cl, c)
	if err != nil {
		return nil, err
	}
	assign := pl.QubitToQPU
	n := len(assign)
	free := cl.FreeSnapshot()
	for _, q := range assign {
		free[q]--
	}
	adj := interactionAdjacency(c)

	cur := CommCost(c, cl, assign)
	best := append([]int(nil), assign...)
	bestCost := cur
	temp := a.InitialTemp
	for it := 0; it < a.Iterations; it++ {
		if a.rng.Intn(2) == 0 {
			// Move one qubit to a random QPU with room.
			qb := a.rng.Intn(n)
			to := a.rng.Intn(cl.NumQPUs())
			from := assign[qb]
			if to == from || free[to] == 0 {
				temp *= a.Cooling
				continue
			}
			delta := moveDelta(cl, adj, assign, qb, to)
			if accept(a.rng, delta, temp) {
				assign[qb] = to
				free[from]++
				free[to]--
				cur += delta
			}
		} else {
			// Swap two qubits across QPUs (capacity-neutral).
			qa, qb := a.rng.Intn(n), a.rng.Intn(n)
			if qa == qb || assign[qa] == assign[qb] {
				temp *= a.Cooling
				continue
			}
			delta := swapDelta(cl, adj, assign, qa, qb)
			if accept(a.rng, delta, temp) {
				assign[qa], assign[qb] = assign[qb], assign[qa]
				cur += delta
			}
		}
		if cur < bestCost {
			bestCost = cur
			copy(best, assign)
		}
		temp *= a.Cooling
	}
	return &Placement{Circuit: c, QubitToQPU: best}, nil
}

func accept(rng *rand.Rand, delta, temp float64) bool {
	if delta <= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() < math.Exp(-delta/temp)
}

// interactionAdjacency precomputes, per qubit, its interacting partners
// and weights for O(degree) move deltas.
func interactionAdjacency(c *circuit.Circuit) [][]weightedQubit {
	adj := make([][]weightedQubit, c.NumQubits())
	for _, e := range c.InteractionGraph().Edges() {
		adj[e.U] = append(adj[e.U], weightedQubit{q: e.V, w: e.W})
		adj[e.V] = append(adj[e.V], weightedQubit{q: e.U, w: e.W})
	}
	return adj
}

type weightedQubit struct {
	q int
	w float64
}

// moveDelta is the communication-cost change from moving qb to QPU `to`.
func moveDelta(cl *cloud.Cloud, adj [][]weightedQubit, assign []int, qb, to int) float64 {
	from := assign[qb]
	var d float64
	for _, nb := range adj[qb] {
		other := assign[nb.q]
		d += float64(nb.w * float64(cl.Distance(to, other)-cl.Distance(from, other)))
	}
	return d
}

// swapDelta is the cost change from exchanging the QPUs of qa and qb.
func swapDelta(cl *cloud.Cloud, adj [][]weightedQubit, assign []int, qa, qb int) float64 {
	pa, pb := assign[qa], assign[qb]
	var d float64
	for _, nb := range adj[qa] {
		if nb.q == qb {
			continue // their mutual edge cost is unchanged by a swap
		}
		other := assign[nb.q]
		d += float64(nb.w * float64(cl.Distance(pb, other)-cl.Distance(pa, other)))
	}
	for _, nb := range adj[qb] {
		if nb.q == qa {
			continue
		}
		other := assign[nb.q]
		d += float64(nb.w * float64(cl.Distance(pa, other)-cl.Distance(pb, other)))
	}
	return d
}
