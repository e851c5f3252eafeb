package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/qlib"
)

// refRemoteDAG is BuildRemoteDAG as it was before it shared its walk
// with BuildMigratingDAG: its own pass over the gate stream with a fixed
// qubit->QPU map. It is the oracle for TestRemoteDAGMatchesReference.
func refRemoteDAG(c *circuit.Circuit, cl *cloud.Cloud, assign []int, lat epr.Latency) *RemoteDAG {
	d := &RemoteDAG{}
	n := c.NumQubits()
	frontier := make([][]int, n)
	lag := make([]float64, n)

	for gi, g := range c.Gates() {
		switch {
		case g.Kind == circuit.Two && assign[g.Qubits[0]] != assign[g.Qubits[1]]:
			a, b := g.Qubits[0], g.Qubits[1]
			id := len(d.Nodes)
			node := RemoteGate{
				ID:        id,
				GateIndex: gi,
				Path:      cl.Path(assign[a], assign[b]),
				Lag:       maxf(lag[a], lag[b]),
			}
			parents := mergeSorted(frontier[a], frontier[b])
			d.Nodes = append(d.Nodes, node)
			d.Succs = append(d.Succs, nil)
			d.Preds = append(d.Preds, parents)
			for _, p := range parents {
				d.Succs[p] = append(d.Succs[p], id)
			}
			frontier[a] = []int{id}
			frontier[b] = []int{id}
			lag[a], lag[b] = 0, 0
		case g.Kind == circuit.Two:
			a, b := g.Qubits[0], g.Qubits[1]
			merged := mergeSorted(frontier[a], frontier[b])
			t := maxf(lag[a], lag[b]) + lat.GateDuration(g.Kind)
			frontier[a] = merged
			frontier[b] = append([]int(nil), merged...)
			lag[a], lag[b] = t, t
		default:
			q := g.Qubits[0]
			lag[q] += lat.GateDuration(g.Kind)
		}
	}

	for q := 0; q < n; q++ {
		if lag[q] > d.Tail {
			d.Tail = lag[q]
		}
	}
	if len(d.Nodes) == 0 {
		d.LocalOnly, d.Tail = d.Tail, 0
	}
	return d
}

// dagMismatch returns how got differs from want, or "" when they are
// equal: every node's ID, path, lag (bit for bit), gate index and
// teleport flag, both adjacency lists, Tail and LocalOnly.
func dagMismatch(got, want *RemoteDAG) string {
	if got.Len() != want.Len() || len(got.Succs) != len(want.Succs) || len(got.Preds) != len(want.Preds) {
		return fmt.Sprintf("%d nodes, %d succ lists, %d pred lists; reference %d, %d, %d",
			got.Len(), len(got.Succs), len(got.Preds), want.Len(), len(want.Succs), len(want.Preds))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.ID != w.ID || g.GateIndex != w.GateIndex || g.Teleport != w.Teleport ||
			!slices.Equal(g.Path, w.Path) || math.Float64bits(g.Lag) != math.Float64bits(w.Lag) {
			return fmt.Sprintf("node %d: %+v, reference %+v", i, g, w)
		}
		if !slices.Equal(got.Succs[i], want.Succs[i]) || !slices.Equal(got.Preds[i], want.Preds[i]) {
			return fmt.Sprintf("node %d: succs %v preds %v, reference succs %v preds %v",
				i, got.Succs[i], got.Preds[i], want.Succs[i], want.Preds[i])
		}
	}
	if math.Float64bits(got.Tail) != math.Float64bits(want.Tail) ||
		math.Float64bits(got.LocalOnly) != math.Float64bits(want.LocalOnly) {
		return fmt.Sprintf("Tail %v LocalOnly %v, reference Tail %v LocalOnly %v",
			got.Tail, got.LocalOnly, want.Tail, want.LocalOnly)
	}
	return ""
}

// TestRemoteDAGMatchesReference: BuildRemoteDAG equals refRemoteDAG on
// every qlib template under seeded assignments, scattered qubit by
// qubit or in contiguous blocks, on a path, a ring and a random cloud.
// BuildMigratingDAG equals it too once the cloud is reserved down to
// the circuit's own footprint: with no spare computing qubit anywhere,
// no teleport can fire.
func TestRemoteDAGMatchesReference(t *testing.T) {
	const computing = 200 // above every template's width, so any assignment fits
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"path3", graph.Path(3)},
		{"ring6", graph.Ring(6)},
		{"random8", graph.Random(8, 0.4, 5)},
	}
	lat := epr.DefaultLatency()
	names := qlib.Names()
	if len(names) != 30 {
		t.Fatalf("%d qlib templates, want 30", len(names))
	}
	for i, tp := range topos {
		topoName, topo := tp.name, tp.g
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for _, name := range names {
			c := qlib.MustBuild(name)
			k := topo.N()
			for _, layout := range []string{"scattered", "blocks"} {
				assign := make([]int, c.NumQubits())
				for q := range assign {
					if layout == "scattered" {
						assign[q] = rng.Intn(k)
					} else {
						assign[q] = q * k / len(assign)
					}
				}
				where := fmt.Sprintf("%s on %s, %s", name, topoName, layout)
				cl := cloud.New(topo, computing, 5)
				want := refRemoteDAG(c, cl, assign, lat)
				if d := dagMismatch(BuildRemoteDAG(c, cl, assign, lat), want); d != "" {
					t.Fatalf("%s: BuildRemoteDAG: %s", where, d)
				}
				for qpu := 0; qpu < k; qpu++ {
					used := 0
					for _, p := range assign {
						if p == qpu {
							used++
						}
					}
					if err := cl.Reserve(qpu, computing-used); err != nil {
						t.Fatal(err)
					}
				}
				got, stats := BuildMigratingDAG(c, cl, assign, lat)
				if d := dagMismatch(got, want); d != "" {
					t.Fatalf("%s: BuildMigratingDAG on a full cloud: %s", where, d)
				}
				if stats.Teleports != 0 || stats.LocalizedGates != 0 || stats.RemoteGates != want.Len() ||
					!slices.Equal(stats.FinalAssign, assign) {
					t.Fatalf("%s: BuildMigratingDAG on a full cloud: stats %+v", where, stats)
				}
			}
		}
	}
}
