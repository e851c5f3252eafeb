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
	d, stats := contract(c, cl, assign, lat, true)
	return d, &stats
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
			continue // 1q gates and measures don't break a burst
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
