// Package cloud models the quantum cloud of the paper (Sec. III): a set
// of QPUs, each with computing qubits (run gates) and communication
// qubits (generate EPR pairs for remote gates), connected by quantum
// links in a fixed topology managed by a central controller.
package cloud

import (
	"errors"
	"fmt"
	"math"

	"cloudqc/internal/graph"
)

// ErrInsufficientCapacity reports a Reserve request exceeding a QPU's
// free computing qubits. Recovery paths that re-place evicted jobs
// match on it with errors.Is to distinguish "no room right now" from a
// genuine accounting bug (which panics in Release instead).
var ErrInsufficientCapacity = errors.New("insufficient free computing capacity")

// QPU is one quantum processing unit. Computing qubits are reserved for
// the lifetime of a placed circuit; communication qubits are claimed and
// returned every EPR-attempt round by the network scheduler.
type QPU struct {
	// ID is the QPU's vertex index in the cloud topology.
	ID int
	// Computing is the total number of computing qubits.
	Computing int
	// Comm is the total number of communication qubits.
	Comm int

	used int
}

// FreeComputing returns the number of unreserved computing qubits.
func (q *QPU) FreeComputing() int { return q.Computing - q.used }

// UsedComputing returns the number of reserved computing qubits.
func (q *QPU) UsedComputing() int { return q.used }

// Cloud is a cluster of QPUs and its quantum-link topology. Hop
// distances and shortest-path trees are precomputed at construction:
// the paper's placement cost C_ij is the path length between QPU i and
// QPU j, and Path answers come from a next-hop table walk instead of a
// per-call BFS (BuildRemoteDAG asks for one path per remote gate).
type Cloud struct {
	qpus []*QPU
	topo *graph.Graph
	dist [][]int
	// parent[i][v] is v's parent in the BFS shortest-path tree rooted at
	// QPU i (the next hop from v toward i); -1 when unreachable. Walking
	// parent[i] from j back to i reproduces topo.ShortestPath(i, j)
	// exactly, tie-breaks included.
	parent [][]int
	// sig canonically identifies the cloud's immutable shape (topology +
	// per-QPU capacities) for plan-cache keys.
	sig uint64
}

// New builds a cloud over the given topology where every QPU has the
// same computing and communication qubit counts (the paper's default is
// 20 QPUs x 20 computing + 5 communication qubits).
func New(topo *graph.Graph, computing, comm int) *Cloud {
	if computing <= 0 || comm < 0 {
		panic(fmt.Sprintf("cloud: invalid qubit counts computing=%d comm=%d", computing, comm))
	}
	qpus := make([]*QPU, topo.N())
	for i := range qpus {
		qpus[i] = &QPU{ID: i, Computing: computing, Comm: comm}
	}
	c := &Cloud{qpus: qpus, topo: topo}
	c.dist = make([][]int, topo.N())
	c.parent = make([][]int, topo.N())
	for i := 0; i < topo.N(); i++ {
		// One BFS per vertex yields both the AllPairsHops row and the
		// shortest-path tree Path walks.
		c.dist[i], c.parent[i] = topo.HopTree(i)
	}
	c.sig = c.signature()
	return c
}

// signature hashes the cloud's immutable shape: QPU count, per-QPU
// capacities, and the topology's edge list.
func (c *Cloud) signature() uint64 {
	h := fnvMix(fnvOffset, uint64(len(c.qpus)))
	for _, q := range c.qpus {
		h = fnvMix(h, uint64(q.Computing))
		h = fnvMix(h, uint64(q.Comm))
	}
	for _, e := range c.topo.Edges() {
		h = fnvMix(h, uint64(e.U))
		h = fnvMix(h, uint64(e.V))
		h = fnvMix(h, math.Float64bits(e.W))
	}
	return h
}

// FreeSignature hashes a per-QPU free computing-qubit snapshot
// (FreeSnapshot order, FNV-1a over the counts). It is the free-capacity
// half of the keys of a controller's plan and verdict caches and of the
// placer's capacity-tier memo. All three are plan.Caches, which keep
// the snapshot and compare it verbatim, so a collision costs a miss,
// never a wrong answer.
func FreeSignature(free []int) uint64 {
	h := uint64(fnvOffset)
	for _, f := range free {
		h = fnvMix(h, uint64(int64(f)))
	}
	return h
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvMix folds v's eight bytes, low first, into the FNV-1a hash h.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Signature canonically identifies the cloud's immutable shape
// (topology and per-QPU qubit counts, not current reservations) —
// half of a plan-cache key (see internal/plan).
func (c *Cloud) Signature() uint64 { return c.sig }

// NewRandom builds a cloud over a connected Erdős–Rényi topology
// (paper default: edge probability 0.3).
func NewRandom(n int, pEdge float64, computing, comm int, seed int64) *Cloud {
	return New(graph.Random(n, pEdge, seed), computing, comm)
}

// NumQPUs returns the number of QPUs.
func (c *Cloud) NumQPUs() int { return len(c.qpus) }

// QPU returns the i-th QPU.
func (c *Cloud) QPU(i int) *QPU { return c.qpus[i] }

// Topology returns the quantum-link graph. Callers must not modify it.
func (c *Cloud) Topology() *graph.Graph { return c.topo }

// Distance returns the hop count between QPUs i and j (C_ij in the
// paper's placement objective), or -1 if disconnected.
func (c *Cloud) Distance(i, j int) int { return c.dist[i][j] }

// Path returns one shortest QPU path from i to j inclusive, or nil if
// j is unreachable from i. The path is read off the precomputed
// shortest-path tree rooted at i — O(path length) per call — and is
// identical, tie-breaks included, to what a fresh BFS
// (graph.ShortestPath) would return.
func (c *Cloud) Path(i, j int) []int {
	if i == j {
		return []int{i}
	}
	d := c.dist[i][j]
	if d < 0 {
		return nil
	}
	path := make([]int, d+1)
	for x, k := j, d; k >= 0; k-- {
		path[k] = x
		x = c.parent[i][x]
	}
	return path
}

// Reserve claims n computing qubits on QPU i, failing if fewer are free.
func (c *Cloud) Reserve(i, n int) error {
	q := c.qpus[i]
	if n < 0 {
		return fmt.Errorf("cloud: negative reservation %d", n)
	}
	if q.FreeComputing() < n {
		return fmt.Errorf("cloud: QPU %d has %d free computing qubits, need %d: %w",
			i, q.FreeComputing(), n, ErrInsufficientCapacity)
	}
	q.used += n
	return nil
}

// Release returns n computing qubits to QPU i. Releasing more than is
// reserved panics: that is always an accounting bug.
func (c *Cloud) Release(i, n int) {
	q := c.qpus[i]
	if n < 0 || n > q.used {
		panic(fmt.Sprintf("cloud: release %d on QPU %d with %d used", n, i, q.used))
	}
	q.used -= n
}

// FreeComputing returns the free computing qubits of QPU i.
func (c *Cloud) FreeComputing(i int) int { return c.qpus[i].FreeComputing() }

// TotalFreeComputing sums free computing qubits across the cloud.
func (c *Cloud) TotalFreeComputing() int {
	total := 0
	for _, q := range c.qpus {
		total += q.FreeComputing()
	}
	return total
}

// MaxFreeComputing returns the largest single-QPU free computing count;
// circuits at or below it can run without distribution.
func (c *Cloud) MaxFreeComputing() int {
	m := 0
	for _, q := range c.qpus {
		if f := q.FreeComputing(); f > m {
			m = f
		}
	}
	return m
}

// FreeSnapshot returns the current free computing qubits per QPU.
func (c *Cloud) FreeSnapshot() []int {
	s := make([]int, len(c.qpus))
	for i, q := range c.qpus {
		s[i] = q.FreeComputing()
	}
	return s
}

// CapacityGraph returns a copy of the topology whose edge weights embed
// the endpoints' free computing qubits (paper Sec. V-B: "we can embed
// the number of computing qubits into the edge weight"), so community
// detection favors dense groups of QPUs with spare capacity.
func (c *Cloud) CapacityGraph() *graph.Graph {
	edges := c.topo.Edges()
	for i, e := range edges {
		edges[i].W = 1 + float64(c.qpus[e.U].FreeComputing()+c.qpus[e.V].FreeComputing())
	}
	return graph.Build(c.topo.N(), edges)
}

// Utilization returns the fraction of computing qubits currently
// reserved, in [0, 1].
func (c *Cloud) Utilization() float64 {
	used, total := 0, 0
	for _, q := range c.qpus {
		used += q.used
		total += q.Computing
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}
