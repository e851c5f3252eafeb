package circuit

import (
	"fmt"
	"slices"
	"sync/atomic"

	"cloudqc/internal/graph"
)

// Circuit is an ordered list of gates over a fixed qubit register.
// Gate order in the slice is program order. A gate depends on the last
// earlier gate on each of its qubits, so a program-order pass with a
// per-qubit ready time walks the dependency partial order.
type Circuit struct {
	// Name identifies the circuit in workloads and reports ("qft_n160").
	Name string

	numQubits int
	gates     []Gate
	// fp memoizes Fingerprint; Append invalidates it. Atomic because
	// workloads deliberately share one Circuit across jobs ("the
	// execution pipeline never mutates them"), so concurrent readers
	// may race to fill the memo — each computes the identical value.
	fp atomic.Pointer[Fingerprint]
	// counts memoizes TwoQubitGateCount and Depth the same way.
	counts atomic.Pointer[gateCounts]
}

// gateCounts is the memoized pair behind TwoQubitGateCount and Depth.
type gateCounts struct{ twoQ, depth int }

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: non-positive qubit count %d", n))
	}
	return &Circuit{Name: name, numQubits: n}
}

// NumQubits returns the register size.
func (c *Circuit) NumQubits() int { return c.numQubits }

// Gates returns the gate list in program order. The returned slice is the
// circuit's backing store; callers must not modify it.
func (c *Circuit) Gates() []Gate { return c.gates }

// Len returns the number of gates.
func (c *Circuit) Len() int { return len(c.gates) }

// Append adds gates in program order, validating qubit indices.
func (c *Circuit) Append(gs ...Gate) {
	for _, g := range gs {
		c.checkQubit(g.Qubits[0])
		if g.Kind == Two {
			c.checkQubit(g.Qubits[1])
		}
		c.gates = append(c.gates, g)
	}
	// An atomic load costs less than a store, and a circuit being built
	// has no memo to clear.
	if c.fp.Load() != nil {
		c.fp.Store(nil)
	}
	if c.counts.Load() != nil {
		c.counts.Store(nil)
	}
}

// Grow makes room for n more gates, so the next n appended gates do not
// reallocate the gate list.
func (c *Circuit) Grow(n int) { c.gates = slices.Grow(c.gates, n) }

// TwoQubitGateCount returns the number of two-qubit gates (the "#2-Qubit
// Gates" column of Table II), memoized until the next Append.
func (c *Circuit) TwoQubitGateCount() int { return c.gateCounts().twoQ }

// GateCount returns counts by kind.
func (c *Circuit) GateCount() (oneQ, twoQ, measures int) {
	for _, g := range c.gates {
		switch g.Kind {
		case Single:
			oneQ++
		case Two:
			twoQ++
		case Measure:
			measures++
		}
	}
	return oneQ, twoQ, measures
}

// Depth returns the circuit depth: the length of the longest chain of
// gates that share qubits, counting every gate (including measures) as
// one layer. This matches the "Circuit Depth" column of Table II.
// Memoized until the next Append.
func (c *Circuit) Depth() int { return c.gateCounts().depth }

// gateCounts returns the memoized two-qubit gate count and depth,
// filling the memo with one gate-list walk on first use. Like
// Fingerprint it is safe on circuits shared across goroutines:
// concurrent first readers each compute the identical value.
func (c *Circuit) gateCounts() gateCounts {
	if p := c.counts.Load(); p != nil {
		return *p
	}
	level := make([]int, c.numQubits)
	gc := gateCounts{}
	for _, g := range c.gates {
		d := level[g.Qubits[0]]
		if g.Kind == Two {
			gc.twoQ++
			if level[g.Qubits[1]] > d {
				d = level[g.Qubits[1]]
			}
		}
		d++
		level[g.Qubits[0]] = d
		if g.Kind == Two {
			level[g.Qubits[1]] = d
		}
		if d > gc.depth {
			gc.depth = d
		}
	}
	c.counts.Store(&gc)
	return gc
}

// InteractionGraph returns the weighted qubit interaction graph: vertices
// are qubits, edge weight D_ij counts two-qubit gates between qubits i
// and j. This is the graph the placement stage partitions.
func (c *Circuit) InteractionGraph() *graph.Graph {
	edges := make([]graph.Edge, 0, c.TwoQubitGateCount())
	for _, gt := range c.gates {
		if gt.Kind == Two {
			edges = append(edges, graph.Edge{U: gt.Qubits[0], V: gt.Qubits[1], W: 1})
		}
	}
	return graph.Build(c.numQubits, edges)
}

// MeasureAll appends a measurement on every qubit.
func (c *Circuit) MeasureAll() {
	for q := 0; q < c.numQubits; q++ {
		c.Append(M(q))
	}
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	cp := New(c.Name, c.numQubits)
	cp.gates = append([]Gate(nil), c.gates...)
	return cp
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.numQubits {
		panic(fmt.Sprintf("circuit %q: qubit %d out of range [0,%d)", c.Name, q, c.numQubits))
	}
}
