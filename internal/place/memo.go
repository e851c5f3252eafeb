package place

import (
	"slices"
	"sync"

	"cloudqc/internal/circuit"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
)

// circuitMemo is the circuit tier of CloudQC's compile. Algorithm 1
// first partitions the circuit and only then maps the parts onto free
// QPUs (Algorithm 2); the partitions depend on the circuit alone, never
// on free capacity. The memo keeps, per circuit fingerprint, the
// interaction graph's edge list and every (k, cap) candidate the sweep
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
	entries fifo[circuit.Fingerprint, *circuitParts]
}

// memoCapacity bounds each memo at the plan cache's default size,
// plan.DefaultCapacity: the circuit memo holds a template library's
// worth of circuits, the tier memo as many capacity states as the plan
// cache holds plans. place cannot import plan (plan depends on sched,
// whose tests import place), so TestCircuitMemoCapacity pins the two
// equal.
const memoCapacity = 256

// fifo is a map holding at most memoCapacity keys, which evicts its
// oldest key first. Callers lock.
type fifo[K comparable, V any] struct {
	m     map[K]V
	order []K // insertion order, for eviction
}

// put stores v under k. A new key evicts the oldest one when full; an
// existing key keeps its place in line.
func (f *fifo[K, V]) put(k K, v V) {
	if f.m == nil {
		f.m = make(map[K]V)
	}
	if _, ok := f.m[k]; !ok {
		if len(f.order) >= memoCapacity {
			delete(f.m, f.order[0])
			f.order = f.order[1:]
		}
		f.order = append(f.order, k)
	}
	f.m[k] = v
}

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

// sweepPoint is one point of Algorithm 1's sweep: k parts of at most
// cap qubits. The imbalance factor α reaches the partitioner only
// through cap = partition.Capacity(n, k, α), so factors that share a
// cap at k share a point.
type sweepPoint struct{ k, cap int }

// parts returns c's memo entry, creating it with the interaction
// graph's edge list on first sight. When it had to build the
// interaction graph it returns that too, for the caller to partition;
// otherwise ig is nil.
func (m *circuitMemo) parts(c *circuit.Circuit) (e *circuitParts, ig *graph.Graph) {
	fp := c.Fingerprint()
	m.mu.Lock()
	e, ok := m.entries.m[fp]
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
	if e, ok := m.entries.m[fp]; ok { // another caller got there first
		return e, ig
	}
	m.entries.put(fp, fresh)
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

// tierMemo is the capacity tier's memo. The QPU sets Algorithm 2 maps
// into, their free sums and their centers depend only on the cloud's
// shape and its free snapshot, never on the circuit, so a placer that
// sees a capacity state again (a queued job retried after a release
// that freed nothing it can use, or another job under the same state)
// reuses them. Entries are keyed by (cloud.Signature, free signature)
// and keep the snapshot, compared verbatim on lookup, so a signature
// collision is a miss. It holds at most memoCapacity states, oldest
// evicted first, is safe for concurrent use, and shares its entries
// read-only between calls.
type tierMemo struct {
	mu      sync.Mutex
	entries fifo[tierKey, *tierSets]
}

// tierKey identifies one capacity state: the cloud's shape signature
// and its free snapshot's signature.
type tierKey struct{ cloud, free uint64 }

// tierSets is what one capacity state determines: the candidate QPU
// sets, each set's free capacity and each set's topology center.
type tierSets struct {
	// free is the snapshot the sets were found under.
	free []int
	// sets lists the candidate QPU sets: the community groups (or the
	// single BFS-grown set for -BFS), then the whole cloud last.
	sets    [][]int
	setFree []int // free capacity of each set
	centers []int // each set's topology center
}

// get returns the sets memoized under key for exactly the snapshot
// free, or nil.
func (m *tierMemo) get(key tierKey, free []int) *tierSets {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries.m[key]; ok && slices.Equal(e.free, free) {
		return e
	}
	return nil
}

// put memoizes e under key, replacing whatever key held.
func (m *tierMemo) put(key tierKey, e *tierSets) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries.put(key, e)
}
