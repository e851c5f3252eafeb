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
// interaction graph's edge list and every (α, k) partition the sweep
// has asked for, failed ones included, so a job re-placed after a
// release runs partition.KWay only for sweep points it has never seen.
//
// It retains no DAGs or graphs, holds at most memoCapacity circuits
// (oldest evicted first), and is safe for concurrent use:
// experiment workers and federation shards share one placer. Results
// are shared read-only between calls.
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
	// results maps a sweep point to KWay's result; a nil value records
	// that KWay rejected the point.
	results map[sweepPoint]*partition.Result
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
// graph's edge list on first sight.
func (m *circuitMemo) parts(c *circuit.Circuit) *circuitParts {
	fp := c.Fingerprint()
	m.mu.Lock()
	e, ok := m.entries[fp]
	m.mu.Unlock()
	if ok {
		return e
	}
	fresh := &circuitParts{
		edges:   c.InteractionGraph().Edges(),
		results: make(map[sweepPoint]*partition.Result),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[fp]; ok { // another caller got there first
		return e
	}
	if len(m.order) >= memoCapacity {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	m.entries[fp] = fresh
	m.order = append(m.order, fp)
	return fresh
}

// result returns the memoized KWay result for pt and whether pt has
// been partitioned before.
func (m *circuitMemo) result(e *circuitParts, pt sweepPoint) (*partition.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := e.results[pt]
	return r, ok
}

// record stores KWay's result for pt (nil when KWay rejected it).
func (m *circuitMemo) record(e *circuitParts, pt sweepPoint, r *partition.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.results[pt] = r
}
