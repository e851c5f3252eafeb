// Package sched implements CloudQC's network scheduler (paper Sec. V-C,
// Algorithm 3): it contracts a placed circuit into a remote DAG of
// inter-QPU gates, computes critical-path priorities, and simulates
// round-based probabilistic EPR allocation under per-QPU communication
// qubit budgets, with the CloudQC, Greedy, Average, and Random policies
// of the evaluation.
package sched

import (
	"sort"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
)

// RemoteGate is one inter-QPU two-qubit gate in the remote DAG.
type RemoteGate struct {
	// ID is the node index within the remote DAG.
	ID int
	// GateIndex is the gate's position in the original circuit.
	GateIndex int
	// Path is the shortest QPU path between the gate's endpoints,
	// inclusive; len(Path)-1 is the number of EPR hops.
	Path []int
	// Lag is the local-computation latency that must elapse between this
	// gate's remote predecessors finishing and its EPR attempts starting
	// (longest chain of local gates in between).
	Lag float64
	// Teleport marks a qubit-migration node: the EPR pair moves a qubit
	// instead of executing a gate. Only BuildMigratingDAG inserts them;
	// the executor and policies run them as any other node.
	Teleport bool
}

// Hops returns the number of quantum links the gate spans.
func (g *RemoteGate) Hops() int { return len(g.Path) - 1 }

// RemoteDAG is the dependency graph over a placed circuit's remote gates
// (paper Fig. 3). Local gates are folded into per-node Lag values and
// the terminal Tail so job completion time still reflects them.
type RemoteDAG struct {
	// Nodes lists the remote gates in circuit program order.
	Nodes []RemoteGate
	// Succs and Preds are adjacency lists over node IDs.
	Succs, Preds [][]int
	// Tail is the longest local-gate chain after the final remote gates;
	// job completion = last remote finish + Tail.
	Tail float64
	// LocalOnly is the full critical-path runtime when the placement
	// produced no remote gates at all (single-QPU placements).
	LocalOnly float64
}

// Len returns the number of remote gates.
func (d *RemoteDAG) Len() int { return len(d.Nodes) }

// BuildRemoteDAG contracts the placed circuit to its remote DAG.
// assign maps qubits to QPUs; lat supplies local gate durations for the
// lag/tail bookkeeping.
func BuildRemoteDAG(c *circuit.Circuit, cl *cloud.Cloud, assign []int, lat epr.Latency) *RemoteDAG {
	d, _ := contract(c, cl, assign, lat, false)
	return d
}

// contract walks c's gate stream once and builds its remote DAG, with
// qubit q on QPU assign[q]. With migrate set it plans teleports as
// BuildMigratingDAG describes, on a copy of assign; without, every
// inter-QPU gate becomes a node, assign is only read and the stats'
// FinalAssign is assign itself.
func contract(c *circuit.Circuit, cl *cloud.Cloud, assign []int, lat epr.Latency, migrate bool) (*RemoteDAG, MigrationStats) {
	n := c.NumQubits()
	cur := assign
	var free []int
	if migrate {
		cur = append([]int(nil), assign...)
		// Free computing slots per QPU beyond the circuit's own footprint.
		free = make([]int, cl.NumQPUs())
		for i := range free {
			free[i] = cl.FreeComputing(i)
		}
		for _, q := range cur {
			free[q]--
		}
	}

	d := &RemoteDAG{}
	var stats MigrationStats
	// frontier[q]: remote nodes that are the latest remote ancestors on
	// qubit q's line. lag[q]: local latency accumulated since then.
	frontier := make([][]int, n)
	lag := make([]float64, n)
	gates := c.Gates()

	for gi, g := range gates {
		if g.Kind != circuit.Two {
			lag[g.Qubits[0]] += lat.GateDuration(g.Kind)
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if cur[a] != cur[b] {
			mover, dest := -1, -1
			if migrate {
				mover, dest = teleportChoice(gates, gi, a, b, cur, free)
			}
			if mover < 0 {
				id := d.add(RemoteGate{
					GateIndex: gi,
					Path:      cl.Path(cur[a], cur[b]),
					Lag:       maxf(lag[a], lag[b]),
				}, mergeSorted(frontier[a], frontier[b]))
				frontier[a] = []int{id}
				frontier[b] = []int{id}
				lag[a], lag[b] = 0, 0
				stats.RemoteGates++
				continue
			}
			// Teleport node: depends on the moving qubit's history
			// only; the EPR spans the current QPU pair.
			src := cur[mover]
			id := d.add(RemoteGate{
				GateIndex: gi,
				Path:      cl.Path(src, dest),
				Lag:       lag[mover],
				Teleport:  true,
			}, append([]int(nil), frontier[mover]...))
			frontier[mover] = []int{id}
			lag[mover] = 0
			free[src]++
			free[dest]--
			cur[mover] = dest
			stats.Teleports++
			stats.LocalizedGates++ // the triggering gate is now local
		} else if assign[a] != assign[b] { // was remote under the static plan
			stats.LocalizedGates++
		}
		merged := mergeSorted(frontier[a], frontier[b])
		t := maxf(lag[a], lag[b]) + lat.GateDuration(g.Kind)
		frontier[a] = merged
		frontier[b] = append([]int(nil), merged...)
		lag[a], lag[b] = t, t
	}

	for q := 0; q < n; q++ {
		if lag[q] > d.Tail {
			d.Tail = lag[q]
		}
	}
	if len(d.Nodes) == 0 {
		// With no remote nodes, lag[q] is qubit q's local ready time, so
		// the largest lag is the local critical path. That needs every
		// duration ≥ 0 (epr.Model.Validate): ready times then never fall.
		d.LocalOnly, d.Tail = d.Tail, 0
	}
	stats.FinalAssign = cur
	return d, stats
}

// add appends node with the next ID and the given parents, links it
// into its parents' successor lists, and returns its ID.
func (d *RemoteDAG) add(node RemoteGate, parents []int) int {
	id := len(d.Nodes)
	node.ID = id
	d.Nodes = append(d.Nodes, node)
	d.Succs = append(d.Succs, nil)
	d.Preds = append(d.Preds, parents)
	for _, p := range parents {
		d.Succs[p] = append(d.Succs[p], id)
	}
	return id
}

// Priorities returns each node's priority: the length in edges of the
// longest path from the node to any leaf (paper Sec. V-C). Nodes with
// high priority block the most downstream work when they stall.
func (d *RemoteDAG) Priorities() []int {
	p := make([]int, d.Len())
	for i := d.Len() - 1; i >= 0; i-- { // reverse program order is reverse topological
		for _, s := range d.Succs[i] {
			if p[s]+1 > p[i] {
				p[i] = p[s] + 1
			}
		}
	}
	return p
}

// CriticalPathLen returns the number of nodes on the longest dependency
// chain, a lower bound on sequential EPR phases.
func (d *RemoteDAG) CriticalPathLen() int {
	if d.Len() == 0 {
		return 0
	}
	longest := 0
	for _, p := range d.Priorities() {
		if p+1 > longest {
			longest = p + 1
		}
	}
	return longest
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// mergeSorted unions two ascending int slices without duplicates.
func mergeSorted(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return append([]int(nil), a...)
	}
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
