package sched

import (
	"math/rand"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/place"
	"cloudqc/internal/qlib"
)

// burstCircuit has 4 consecutive CX gates between the same cross-QPU
// pair — the canonical teleportation win.
func burstCircuit() (*circuit.Circuit, *cloud.Cloud, []int) {
	c := circuit.New("burst", 2)
	for i := 0; i < 4; i++ {
		c.Append(circuit.CX(0, 1))
	}
	cl := cloud.New(graph.Path(2), 10, 5)
	return c, cl, []int{0, 1}
}

func TestMigratingDAGCollapsesBurst(t *testing.T) {
	c, cl, assign := burstCircuit()
	d, stats := BuildMigratingDAG(c, cl, assign, epr.DefaultLatency())
	if stats.Teleports != 1 {
		t.Fatalf("teleports = %d, want 1", stats.Teleports)
	}
	if d.Len() != 1 {
		t.Fatalf("remote nodes = %d, want 1 (the teleport)", d.Len())
	}
	if !d.Nodes[0].Teleport {
		t.Fatal("single node should be a teleport")
	}
	if stats.LocalizedGates != 4 {
		t.Fatalf("localized = %d, want all 4 gates", stats.LocalizedGates)
	}
	// The moved qubit ends on QPU 1 (or 0 — one shared QPU).
	if stats.FinalAssign[0] != stats.FinalAssign[1] {
		t.Fatalf("qubits should be co-located after migration: %v", stats.FinalAssign)
	}
	// The static plan pays 4 remote gates.
	static := BuildRemoteDAG(c, cl, assign, epr.DefaultLatency())
	if static.Len() != 4 {
		t.Fatalf("static remote gates = %d, want 4", static.Len())
	}
}

func TestMigrationRespectsCapacity(t *testing.T) {
	// Destination QPU completely full: no teleport possible; all gates
	// stay remote.
	c := circuit.New("full", 2)
	for i := 0; i < 4; i++ {
		c.Append(circuit.CX(0, 1))
	}
	cl := cloud.New(graph.Path(2), 1, 5) // 1 computing qubit per QPU
	d, stats := BuildMigratingDAG(c, cl, []int{0, 1}, epr.DefaultLatency())
	if stats.Teleports != 0 {
		t.Fatalf("teleports = %d, want 0 (no capacity)", stats.Teleports)
	}
	if d.Len() != 4 {
		t.Fatalf("remote nodes = %d, want 4", d.Len())
	}
}

func TestMigrationSkipsSingletonInteractions(t *testing.T) {
	// Alternating partners: no burst ever forms with MinBurst 2.
	c := circuit.New("alt", 3)
	c.Append(circuit.CX(0, 1), circuit.CX(0, 2), circuit.CX(0, 1), circuit.CX(0, 2))
	cl := cloud.New(graph.Path(3), 10, 5)
	assign := []int{0, 1, 2}
	_, stats := BuildMigratingDAG(c, cl, assign, epr.DefaultLatency())
	if stats.Teleports != 0 {
		t.Fatalf("teleports = %d, want 0 for alternating partners", stats.Teleports)
	}
}

func TestMigrationDependencies(t *testing.T) {
	// After qubit 0 teleports to QPU 1, a later gate against qubit 2 on
	// QPU 0 crosses QPUs in the *new* direction and must depend on the
	// teleport node.
	c := circuit.New("dep", 3)
	c.Append(
		circuit.CX(0, 1), // triggers teleport of 0 -> QPU 1 (burst of 2)
		circuit.CX(0, 1),
		circuit.CX(0, 2), // now remote: QPU 1 vs QPU 0
	)
	cl := cloud.New(graph.Path(2), 10, 5)
	assign := []int{0, 1, 0}
	d, stats := BuildMigratingDAG(c, cl, assign, epr.DefaultLatency())
	if stats.Teleports != 1 {
		t.Fatalf("teleports = %d, want 1", stats.Teleports)
	}
	if d.Len() != 2 {
		t.Fatalf("nodes = %d, want teleport + 1 remote gate", d.Len())
	}
	last := d.Nodes[1]
	if last.Teleport {
		t.Fatal("second node should be a plain remote gate")
	}
	if len(d.Preds[1]) != 1 || d.Preds[1][0] != 0 {
		t.Fatalf("remote gate must depend on the teleport: preds = %v", d.Preds[1])
	}
}

func TestMigrationPlanExecutes(t *testing.T) {
	// A migration plan runs through the unmodified executor.
	c, cl, assign := burstCircuit()
	d, _ := BuildMigratingDAG(c, cl, assign, epr.DefaultLatency())
	res, err := Run(d, cl, epr.DefaultModel(), CloudQCPolicy{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT <= 0 {
		t.Fatalf("JCT = %v", res.JCT)
	}
}

func TestMigrationBeatsStaticOnBurstyCircuit(t *testing.T) {
	// QFT's controlled-phase blocks put two consecutive CX gates on each
	// cross-QPU pair; teleportation collapses them and wins big (the
	// multiplier's alternating Toffoli streams are the documented
	// counterexample — see exp.TeleportComparison).
	cl := cloud.NewRandom(20, 0.3, 20, 5, 1)
	circ := qlib.MustBuild("qft_n63")
	cfg := place.DefaultConfig()
	pl, err := place.NewCloudQC(cfg).Place(cl, circ)
	if err != nil {
		t.Fatal(err)
	}
	lat := epr.DefaultLatency()
	static := BuildRemoteDAG(circ, cl, pl.QubitToQPU, lat)
	migrated, stats := BuildMigratingDAG(circ, cl, pl.QubitToQPU, lat)
	if stats.Teleports == 0 {
		t.Fatal("multiplier should trigger migrations")
	}
	if migrated.Len() >= static.Len() {
		t.Fatalf("migration plan has %d nodes, static %d — should shrink", migrated.Len(), static.Len())
	}
	var sumStatic, sumMig float64
	const reps = 5
	for seed := int64(0); seed < reps; seed++ {
		s, err := Run(static, cl, epr.DefaultModel(), CloudQCPolicy{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(migrated, cl, epr.DefaultModel(), CloudQCPolicy{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sumStatic += s.JCT
		sumMig += m.JCT
	}
	if sumMig >= sumStatic {
		t.Fatalf("teleportation mean JCT %v did not beat static %v", sumMig/reps, sumStatic/reps)
	}
}

func TestMigrationLocalOnlyCircuit(t *testing.T) {
	cl := cloud.New(graph.Path(2), 10, 5)
	c := circuit.New("local", 2)
	c.Append(circuit.H(0), circuit.CX(0, 1), circuit.M(1))
	d, stats := BuildMigratingDAG(c, cl, []int{0, 0}, epr.DefaultLatency())
	if d.Len() != 0 || stats.Teleports != 0 {
		t.Fatalf("local circuit: nodes=%d teleports=%d", d.Len(), stats.Teleports)
	}
	if d.LocalOnly <= 0 {
		t.Fatal("LocalOnly should be set")
	}
}
