// Package place implements CloudQC's circuit placement (paper Sec. V-B,
// Algorithms 1 and 2) and the evaluation baselines: Random search,
// Simulated Annealing (Mao et al.), a Genetic Algorithm, and the
// CloudQC-BFS variant that replaces community detection with BFS.
//
// A placement maps every qubit of a circuit to a QPU such that no QPU's
// free computing qubits are exceeded. Quality is measured by the paper's
// communication cost Σ D_ij·C_π(i)π(j) (interaction weight times QPU hop
// distance) and by the remote-operation count Σ D_ij·1[π(i)≠π(j)].
package place

import (
	"fmt"
	"sort"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
)

// Placement assigns every qubit of one circuit to a QPU.
type Placement struct {
	// Circuit is the placed circuit.
	Circuit *circuit.Circuit
	// QubitToQPU maps each qubit index to its QPU id.
	QubitToQPU []int
}

// UsedQPUs returns the distinct QPUs hosting at least one qubit,
// ascending.
func (p *Placement) UsedQPUs() []int {
	seen := map[int]bool{}
	for _, q := range p.QubitToQPU {
		seen[q] = true
	}
	out := make([]int, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// QubitsPerQPU counts how many qubits each used QPU hosts.
func (p *Placement) QubitsPerQPU() map[int]int {
	counts := map[int]int{}
	for _, q := range p.QubitToQPU {
		counts[q]++
	}
	return counts
}

// Validate checks that the placement is total and respects the cloud's
// free computing capacity.
func (p *Placement) Validate(cl *cloud.Cloud) error {
	if len(p.QubitToQPU) != p.Circuit.NumQubits() {
		return fmt.Errorf("place: %d assignments for %d qubits",
			len(p.QubitToQPU), p.Circuit.NumQubits())
	}
	for qb, qpu := range p.QubitToQPU {
		if qpu < 0 || qpu >= cl.NumQPUs() {
			return fmt.Errorf("place: qubit %d on invalid QPU %d", qb, qpu)
		}
	}
	for qpu, n := range p.QubitsPerQPU() {
		if free := cl.FreeComputing(qpu); n > free {
			return fmt.Errorf("place: QPU %d hosts %d qubits but has %d free", qpu, n, free)
		}
	}
	return nil
}

// Reserve claims the placement's computing qubits from the cloud. On
// failure nothing stays reserved.
func (p *Placement) Reserve(cl *cloud.Cloud) error {
	counts := p.QubitsPerQPU()
	var done []int
	for qpu, n := range counts {
		if err := cl.Reserve(qpu, n); err != nil {
			for _, d := range done {
				cl.Release(d, counts[d])
			}
			return err
		}
		done = append(done, qpu)
	}
	return nil
}

// Release returns the placement's computing qubits to the cloud.
func (p *Placement) Release(cl *cloud.Cloud) {
	for qpu, n := range p.QubitsPerQPU() {
		cl.Release(qpu, n)
	}
}

// Placer is a circuit placement algorithm. Place must not mutate the
// cloud; callers reserve capacity explicitly via Placement.Reserve.
type Placer interface {
	// Name identifies the algorithm in reports ("CloudQC", "SA", ...).
	Name() string
	// Place computes a placement of c on cl's currently free resources.
	Place(cl *cloud.Cloud, c *circuit.Circuit) (*Placement, error)
}

// DeterministicPlacer marks placement algorithms whose Place is a pure
// function of the circuit's structure and the cloud's current
// free-capacity state: identical inputs always yield the identical
// placement. It may carry state between calls only as memos of
// artifacts that depend on the circuit alone or on the capacity state
// alone (CloudQC keeps its partitions per circuit fingerprint and its
// feasible QPU sets per free snapshot), so that its output stays a
// pure function of (circuit structure, free snapshot). The controller's
// compile-once plan cache (internal/plan) engages only for
// deterministic placers — a hit then returns exactly what a fresh
// Place call would have, keeping cached and uncached runs
// bit-identical. The Random, SA, and GA baselines draw from a
// persistent RNG across calls and must not be memoized.
type DeterministicPlacer interface {
	Placer
	// DeterministicPlacement is a marker method; implementations do
	// nothing.
	DeterministicPlacement()
}

// ErrInfeasible is returned when the cloud lacks capacity for a circuit.
type ErrInfeasible struct {
	Circuit string
	Need    int
	Free    int
}

func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("place: circuit %s needs %d qubits, cloud has %d free",
		e.Circuit, e.Need, e.Free)
}
