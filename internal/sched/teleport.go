package sched

import (
	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
)

// Teleportation support: instead of executing every inter-QPU gate with
// the cat-entangler protocol (one EPR pair per gate, qubits stay put),
// a qubit with a burst of upcoming interactions on another QPU can be
// teleported there — one EPR pair moves the qubit and the burst becomes
// local. This is the trade-off Autocomm (Wu et al., MICRO 2022)
// optimizes and the remote-SWAP substitution of Baker et al.; CloudQC's
// paper treats all remote gates as cat-entangler operations, so this is
// an extension with its own ablation.

// Migration heuristic constants.
const (
	// teleportLookahead bounds how many upcoming gates are scanned when
	// counting a pair's interaction burst.
	teleportLookahead = 12
	// teleportMinBurst is the number of consecutive same-pair remote
	// gates that justifies a teleport: one teleport EPR replaces >= 2
	// gate EPRs.
	teleportMinBurst = 2
)

// MigrationStats reports what the planner did.
type MigrationStats struct {
	// Teleports is the number of qubit migrations inserted.
	Teleports int
	// RemoteGates is the number of gates still executed remotely.
	RemoteGates int
	// LocalizedGates is the number of formerly-remote gates made local
	// by migrations.
	LocalizedGates int
	// FinalAssign is the qubit->QPU map after all migrations.
	FinalAssign []int
}

// BuildMigratingDAG contracts a placed circuit into a remote DAG like
// BuildRemoteDAG, but walks the gate stream with a dynamic qubit->QPU
// assignment: when a remote gate opens a burst of at least
// teleportMinBurst interactions between the same qubit pair, and the
// partner QPU has a free computing qubit, one qubit teleports (a Teleport node consuming
// one EPR on the QPU path) and the burst executes locally.
//
// Teleport nodes reuse the RemoteGate machinery (they occupy the same
// EPR rounds and swap latency), flagged via RemoteGate.Teleport, so the
// unmodified executor and policies run migration plans directly.
func BuildMigratingDAG(c *circuit.Circuit, cl *cloud.Cloud, assign []int, lat epr.Latency) (*RemoteDAG, *MigrationStats) {
	n := c.NumQubits()
	cur := append([]int(nil), assign...)
	// Free computing slots per QPU beyond the circuit's own footprint.
	free := make([]int, cl.NumQPUs())
	for i := range free {
		free[i] = cl.FreeComputing(i)
	}
	for _, q := range cur {
		free[q]--
	}

	d := &RemoteDAG{}
	stats := &MigrationStats{}
	frontier := make([][]int, n)
	lag := make([]float64, n)
	gates := c.Gates()

	addNode := func(node RemoteGate, parents []int, qubits ...int) int {
		id := len(d.Nodes)
		node.ID = id
		d.Nodes = append(d.Nodes, node)
		d.Succs = append(d.Succs, nil)
		d.Preds = append(d.Preds, parents)
		for _, p := range parents {
			d.Succs[p] = append(d.Succs[p], id)
		}
		for _, q := range qubits {
			frontier[q] = []int{id}
			lag[q] = 0
		}
		return id
	}

	for gi, g := range gates {
		switch {
		case g.Kind == circuit.Two && cur[g.Qubits[0]] != cur[g.Qubits[1]]:
			a, b := g.Qubits[0], g.Qubits[1]
			if mover, dest := teleportChoice(gates, gi, a, b, cur, free); mover >= 0 {
				// Teleport node: depends on the moving qubit's history
				// only; the EPR spans the current QPU pair.
				src := cur[mover]
				tele := RemoteGate{
					GateIndex: gi,
					Path:      cl.Path(src, dest),
					Lag:       lag[mover],
					Teleport:  true,
				}
				addNode(tele, append([]int(nil), frontier[mover]...), mover)
				free[src]++
				free[dest]--
				cur[mover] = dest
				stats.Teleports++
				// The triggering gate is now local.
				t := maxf(lag[a], lag[b]) + lat.GateDuration(g.Kind)
				merged := mergeSorted(frontier[a], frontier[b])
				frontier[a] = merged
				frontier[b] = append([]int(nil), merged...)
				lag[a], lag[b] = t, t
				stats.LocalizedGates++
				continue
			}
			node := RemoteGate{
				GateIndex: gi,
				Path:      cl.Path(cur[a], cur[b]),
				Lag:       maxf(lag[a], lag[b]),
			}
			addNode(node, mergeSorted(frontier[a], frontier[b]), a, b)
			stats.RemoteGates++
		case g.Kind == circuit.Two:
			a, b := g.Qubits[0], g.Qubits[1]
			merged := mergeSorted(frontier[a], frontier[b])
			t := maxf(lag[a], lag[b]) + lat.GateDuration(g.Kind)
			frontier[a] = merged
			frontier[b] = append([]int(nil), merged...)
			lag[a], lag[b] = t, t
			if assign[a] != assign[b] { // was remote under the static plan
				stats.LocalizedGates++
			}
		default:
			lag[g.Qubits[0]] += lat.GateDuration(g.Kind)
		}
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

// teleportChoice decides whether the remote gate at index gi between
// qubits a and b should trigger a migration. It returns the qubit to
// move and its destination QPU, or (-1, -1) to execute remotely.
//
// The burst is counted by scanning ahead: consecutive two-qubit gates
// between exactly a and b extend it; any other two-qubit gate touching
// a or b ends it; unrelated gates are skipped.
func teleportChoice(gates []circuit.Gate, gi, a, b int, cur, free []int) (mover, dest int) {
	burst := 1
	scanned := 0
	for i := gi + 1; i < len(gates) && scanned < teleportLookahead; i++ {
		g := gates[i]
		scanned++
		if g.Kind != circuit.Two {
			if g.On(a) || g.On(b) {
				continue // 1q gates and measures don't break a burst
			}
			continue
		}
		onA, onB := g.On(a), g.On(b)
		switch {
		case onA && onB:
			burst++
		case onA || onB:
			scanned = teleportLookahead // third-party interaction: burst over
		}
	}
	if burst < teleportMinBurst {
		return -1, -1
	}
	// Prefer moving a into b's QPU; fall back to the reverse.
	if free[cur[b]] > 0 {
		return a, cur[b]
	}
	if free[cur[a]] > 0 {
		return b, cur[a]
	}
	return -1, -1
}
