package place

import (
	"sync"

	"cloudqc/internal/circuit"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
)

// circuitMemo is the circuit tier of CloudQC's compile. Algorithm 1
// first partitions the circuit and only then maps the parts onto free
// QPUs (Algorithm 2); the partitions depend on the circuit alone, never
// on free capacity. The memo keeps, per circuit fingerprint, the
// interaction graph's edge list and every (α, k) candidate the sweep
// has asked for, failed ones included, so a job re-placed after a
// release partitions only at sweep points it has never seen. A
// candidate carries the part-side half of Algorithm 2 with its
// partition: the order parts are mapped in and the part each one
// anchors on.
//
// It retains no DAGs, graphs or partition hierarchies, holds at most
// memoCapacity circuits (oldest evicted first), and is safe for
// concurrent use: experiment workers and federation shards share one
// placer. Candidates are shared read-only between calls.
type circuitMemo struct {
	mu      sync.Mutex
	entries map[circuit.Fingerprint]*circuitParts
	order   []circuit.Fingerprint // insertion order, for eviction
}

// memoCapacity bounds the memo at the plan cache's default size,
// plan.DefaultCapacity: both hold a template library's worth of
// circuits. place cannot import plan (plan depends on sched, whose
// tests import place), so TestCircuitMemoCapacity pins the two equal.
const memoCapacity = 256

// circuitParts is one circuit's memoized partitioning.
type circuitParts struct {
	// edges is the interaction graph's edge list (graph.Edges order).
	edges []graph.Edge
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
}

// sweepPoint is one (α, k) pair of Algorithm 1's sweep.
type sweepPoint struct {
	alpha float64
	k     int
}

func newCircuitMemo() *circuitMemo {
	return &circuitMemo{entries: make(map[circuit.Fingerprint]*circuitParts)}
}

// parts returns c's memo entry, creating it with the interaction
// graph's edge list on first sight. When it had to build the
// interaction graph it returns that too, for the caller to partition;
// otherwise ig is nil.
func (m *circuitMemo) parts(c *circuit.Circuit) (e *circuitParts, ig *graph.Graph) {
	fp := c.Fingerprint()
	m.mu.Lock()
	e, ok := m.entries[fp]
	m.mu.Unlock()
	if ok {
		return e, nil
	}
	ig = c.InteractionGraph()
	fresh := &circuitParts{
		edges:   ig.Edges(),
		results: make(map[sweepPoint]*candidate),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[fp]; ok { // another caller got there first
		return e, ig
	}
	if len(m.order) >= memoCapacity {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	m.entries[fp] = fresh
	m.order = append(m.order, fp)
	return fresh, ig
}

// result returns the memoized candidate for pt and whether pt has been
// partitioned before.
func (m *circuitMemo) result(e *circuitParts, pt sweepPoint) (*candidate, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := e.results[pt]
	return r, ok
}

// record stores pt's candidate (nil when the partitioner rejected pt).
func (m *circuitMemo) record(e *circuitParts, pt sweepPoint, r *candidate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.results[pt] = r
}
