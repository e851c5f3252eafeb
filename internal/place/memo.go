package place

import (
	"sync"

	"cloudqc/internal/circuit"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
)

// circuitParts is one circuit's entry in the circuit tier of CloudQC's
// compile. Algorithm 1 first partitions the circuit and only then maps
// the parts onto free QPUs (Algorithm 2); the partitions depend on the
// circuit alone, never on free capacity. The entry keeps the
// interaction graph's edge list, the circuit's estimate program and
// every (k, cap) candidate the sweep has asked for, failed ones
// included, so a job re-placed after a release partitions only at
// sweep points it has never seen. A candidate carries the part-side
// half of Algorithm 2 with its partition: the order parts are mapped in
// and the part each one anchors on, plus what the sweep prunes with. It
// retains no DAGs, graphs or partition hierarchies; candidates are
// shared read-only between calls.
type circuitParts struct {
	// edges is the interaction graph's edge list (graph.Edges order).
	edges []graph.Edge
	// prog is the circuit's estimate program under the placer's model,
	// and tLocal its runtime with every qubit on one QPU.
	prog   []estOp
	tLocal float64

	mu sync.Mutex
	// results maps a sweep point to its candidate; a nil value records
	// that the partitioner rejected the point.
	results map[sweepPoint]*candidate
}

// candidate is one sweep point's partition together with the part-side
// work of Algorithm 2, which depends on the partition alone.
type candidate struct {
	res *partition.Result
	// order is the part interaction graph's BFS order from its center;
	// parts it cannot reach follow in index order.
	order []int
	// anchor[i] is the part order[i] is mapped next to: its heaviest
	// neighbor among order[:i], or -1 when it has none.
	anchor []int
	// cCut is the weight of the interaction edges between parts, summed
	// in edge order: the least communication cost any mapping of the
	// partition can have (see boundsTime).
	cCut float64
	// sizesDesc holds the part sizes, largest first (see tierSets.fits).
	sizesDesc []int
}

// sweepPoint is one point of Algorithm 1's sweep: k parts of at most
// cap qubits. The imbalance factor α reaches the partitioner only
// through cap = partition.Capacity(n, k, α), so factors that share a
// cap at k share a point.
type sweepPoint struct{ k, cap int }

// parts returns c's circuit-tier entry, creating it on first sight with
// the interaction graph's edge list and the estimate program (the
// placer's model is fixed, so the program is too). When it had to build
// the interaction graph it returns that too, for the caller to
// partition; otherwise ig is nil. Two callers racing on a cold circuit
// may both build an entry; either one is exact, and the later insert
// stands.
func (p *CloudQC) parts(c *circuit.Circuit) (e *circuitParts, ig *graph.Graph) {
	fp := c.Fingerprint()
	if e, ok := p.circuits.Lookup(fp, nil); ok {
		return e, nil
	}
	ig = c.InteractionGraph()
	prog := compileEstimate(c, p.cfg.Model)
	e = &circuitParts{
		edges:   ig.Edges(),
		prog:    prog,
		tLocal:  localTime(prog, c.NumQubits()),
		results: make(map[sweepPoint]*candidate),
	}
	p.circuits.Insert(fp, nil, e)
	return e, ig
}

// result returns the memoized candidate for pt and whether pt has been
// partitioned before.
func (e *circuitParts) result(pt sweepPoint) (*candidate, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.results[pt]
	return r, ok
}

// record stores pt's candidate (nil when the partitioner rejected pt).
func (e *circuitParts) record(pt sweepPoint, r *candidate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results[pt] = r
}

// tierKey identifies one capacity state: the cloud's shape signature
// and its free snapshot's signature.
type tierKey struct{ cloud, free uint64 }

// tierSets is the capacity tier's memo entry. The QPU sets Algorithm 2
// maps into, their free sums and their centers depend only on the
// cloud's shape and its free snapshot, never on the circuit, so a
// placer that sees a capacity state again (a queued job retried after a
// release that freed nothing it can use, or another job under the same
// state) reuses them. Entries are shared read-only between calls.
type tierSets struct {
	// sets lists the candidate QPU sets: the community groups (or the
	// single BFS-grown set for -BFS), then the whole cloud last.
	sets    [][]int
	setFree []int // free capacity of each set
	centers []int // each set's topology center
	// freeDesc holds the snapshot's free counts, largest first.
	freeDesc []int
}
