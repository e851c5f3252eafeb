package place

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
	"cloudqc/internal/qlib"
)

// refSweep is CloudQC's sweep as it was before the capacity gate and
// the score bound: every (k, cap) point from ⌈size / largest free⌉
// parts up is partitioned, mapped and scored over the circuit's gates.
// It is the oracle for TestPlaceMatchesReference. Its hierarchies are
// its own, one per circuit: Hierarchy.Partition answers as a one-shot
// KWay would, whatever it was asked before.
type refSweep struct {
	p     *CloudQC
	hs    map[*circuit.Circuit]*partition.Hierarchy
	edges map[*circuit.Circuit][]graph.Edge
}

func newRefSweep(cfg Config) *refSweep {
	return &refSweep{
		p:     NewCloudQC(cfg),
		hs:    make(map[*circuit.Circuit]*partition.Hierarchy),
		edges: make(map[*circuit.Circuit][]graph.Edge),
	}
}

// refEstimateTime is estimate_time over the circuit's own gates, each
// duration looked up per gate, as Place scored before estimate
// programs.
func refEstimateTime(c *circuit.Circuit, cl *cloud.Cloud, m epr.Model, qubitToQPU []int, lat []float64) float64 {
	ready := make([]float64, c.NumQubits())
	var total float64
	for _, g := range c.Gates() {
		qs := g.Qubits[:g.Arity()]
		dur := m.GateDuration(g.Kind)
		if g.Kind == circuit.Two {
			if a, b := qubitToQPU[qs[0]], qubitToQPU[qs[1]]; a != b {
				dur = lat[max(cl.Distance(a, b), 0)]
			}
		}
		start := 0.0
		for _, q := range qs {
			if ready[q] > start {
				start = ready[q]
			}
		}
		finish := start + dur
		for _, q := range qs {
			ready[q] = finish
		}
		if finish > total {
			total = finish
		}
	}
	return total
}

// place is Place without pruning: the same fast path and k range
// bounds, then every point of the sweep scored.
func (r *refSweep) place(cl *cloud.Cloud, c *circuit.Circuit) (*Placement, error) {
	p := r.p
	size := c.NumQubits()
	infeasible := &ErrInfeasible{Circuit: c.Name, Need: size, Free: cl.TotalFreeComputing()}
	if size > cl.TotalFreeComputing() {
		return nil, infeasible
	}
	if size <= cl.MaxFreeComputing() {
		return p.Place(cl, c) // the one-QPU fast path, which nothing prunes
	}
	kMin := max(2, (size+cl.MaxFreeComputing()-1)/cl.MaxFreeComputing())
	kMax := min(feasibleQPUs(cl), size)
	h := r.hs[c]
	if h == nil {
		ig := c.InteractionGraph()
		h = partition.NewHierarchy(ig, p.cfg.Seed)
		r.hs[c], r.edges[c] = h, ig.Edges()
	}
	edges := r.edges[c]
	tier := p.newCapacityTier(cl, size)
	lat := remoteLatencies(cl, p.cfg.Model)
	var best *Placement
	var bestScore float64
	alphas := p.cfg.ImbalanceFactors
	for i, alpha := range alphas {
		if !partition.ValidImbalance(alpha) {
			continue
		}
		for k := kMin; k <= kMax; k++ {
			pt := sweepPoint{k: k, cap: partition.Capacity(size, k, alpha)}
			if sweptBefore(alphas[:i], size, pt) {
				continue
			}
			res, err := h.Partition(pt.k, pt.cap)
			if err != nil {
				continue
			}
			assign, err := tier.mapParts(newCandidate(edges, res))
			if err != nil {
				continue
			}
			if eps := p.cfg.RemoteOpsEpsilon; eps > 0 && exceedsRemoteEps(c, cl.NumQPUs(), assign, eps) {
				continue
			}
			t := refEstimateTime(c, cl, p.cfg.Model, assign, lat)
			s := Score(t, commCostEdges(edges, cl, assign))
			if best == nil || s > bestScore {
				best = &Placement{Circuit: c, QubitToQPU: assign}
				bestScore = s
			}
		}
	}
	if best == nil {
		return nil, infeasible
	}
	return best, nil
}

// referenceConfigs are the placer configurations TestPlaceMatchesReference
// sweeps: the default, -BFS, the ε constraint, and a model whose
// remote gates undercut a local CX, under which the score bound must
// switch itself off. ExpectedRemoteLatency adds a CX and a measure to
// the EPR time, so only a negative measure, which Validate rejects,
// brings a remote gate under the local CX.
func referenceConfigs() map[string]Config {
	cfgs := memoConfigs()
	fast := DefaultConfig()
	fast.Model.Measure = -40
	cfgs["fast-remote"] = fast
	return cfgs
}

// TestPlaceMatchesReference: Place, with its capacity gate and score
// bound, returns the placement the unpruned sweep returns, or fails
// with the same error, on every qlib template over seeded
// reserve/release free snapshots.
func TestPlaceMatchesReference(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, name := range qlib.Names() {
		circuits = append(circuits, qlib.MustBuild(name))
	}
	for name, cfg := range referenceConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			cl := cloud.NewRandom(20, 0.3, 20, 5, 3)
			if on := boundsTime(remoteLatencies(cl, cfg.Model), cfg.Model); on != (name != "fast-remote") {
				t.Fatalf("score bound on = %v", on)
			}
			p, ref := NewCloudQC(cfg), newRefSweep(cfg)
			var held []*Placement
			placed, failed := 0, 0
			for step := 0; step < 3*len(circuits); step++ {
				if len(held) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(held))
					held[i].Release(cl)
					held = slices.Delete(held, i, i+1)
				}
				c := circuits[step%len(circuits)]
				pl, err := p.Place(cl, c)
				want, refErr := ref.place(cl, c)
				if d := placeMismatch(pl, err, want, refErr); d != "" {
					t.Fatalf("step %d %s free=%v: %s", step, c.Name, cl.FreeSnapshot(), d)
				}
				if err != nil {
					failed++
					continue
				}
				placed++
				if rng.Intn(2) == 0 { // hold it, so the cloud fills
					if err := pl.Reserve(cl); err != nil {
						t.Fatal(err)
					}
					held = append(held, pl)
				}
			}
			t.Logf("%d placed, %d infeasible", placed, failed)
			if placed == 0 || failed == 0 {
				t.Fatalf("degenerate sequence: %d placed, %d infeasible", placed, failed)
			}
		})
	}
}

// placeMismatch returns how a Place result differs from the
// reference's, or "" when both place every qubit on the same QPU or
// both fail with the same error.
func placeMismatch(pl *Placement, err error, want *Placement, refErr error) string {
	if err != nil || refErr != nil {
		var a, b *ErrInfeasible
		if !errors.As(err, &a) || !errors.As(refErr, &b) || *a != *b {
			return fmt.Sprintf("error %v, reference %v", err, refErr)
		}
		return ""
	}
	if !slices.Equal(pl.QubitToQPU, want.QubitToQPU) {
		return fmt.Sprintf("placement %v, reference %v", pl.QubitToQPU, want.QubitToQPU)
	}
	return ""
}
