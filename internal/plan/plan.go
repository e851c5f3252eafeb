// Package plan is CloudQC's one bounded memo for placement compile. A
// Cache maps a key to a value computed under an exact per-QPU
// free-computing snapshot, and returns it only for that snapshot: the
// snapshot is stored with the entry and compared verbatim on lookup,
// so a collision in the key's hash of it degrades to a miss instead of
// a wrong reuse. A value that depends on no capacity state is stored
// and looked up with a nil snapshot.
//
// Compile memoizes four things this way, each in a Cache of its own
// at DefaultCapacity unless configured otherwise:
//
//   - a controller's plan cache (internal/core): the placement
//     assignment and the contracted remote DAG skeleton with its
//     critical-path priorities, per (circuit fingerprint, cloud shape,
//     free snapshot). A deterministic placer is a pure function of
//     circuit structure and free snapshot, so a hit is precisely the
//     placement a fresh Place call would compute, and one whose QPUs
//     still have the room it needs;
//   - the controller's verdict cache: under the same keys, the misses
//     the placer found infeasible, which are infeasible again. Queued
//     jobs retried after every release mostly ask questions the placer
//     has answered. A verdict never evicts a plan, and the plan cache's
//     counters stay those of plan lookups alone;
//   - CloudQC's circuit memo (internal/place): per circuit
//     fingerprint, with no snapshot, the interaction edges and every
//     partition Algorithm 1's sweep has asked for;
//   - CloudQC's capacity-tier memo: per capacity state, the QPU sets
//     Algorithm 2 maps into, with their free sums and centers.
//
// A Cache is an LRU, counts hits, misses and evictions, and is safe for
// concurrent use: experiment workers and federation shards share one
// placer. Values are shared read-only between callers. One plan cache
// belongs to one controller configuration: its key does not cover the
// placer's parameters or the latency model, which are fixed per
// controller.
package plan

import (
	"slices"
	"sync"

	"cloudqc/internal/circuit"
)

// DefaultCapacity bounds a controller's plan cache when no explicit
// size is configured, and each of CloudQC's memos: enough for a
// qlib-scale template library across dozens of distinct cloud
// occupancy states.
const DefaultCapacity = 256

// Key identifies one cached plan: what circuit, on what cloud, under
// which free-capacity state.
type Key struct {
	// Circuit is the template's structural fingerprint.
	Circuit circuit.Fingerprint
	// Cloud is the cloud's immutable shape signature (cloud.Signature).
	Cloud uint64
	// Free is the free-capacity signature (cloud.FreeSignature): a hash
	// of the per-QPU free computing-qubit snapshot at placement time.
	// Entries additionally store the full snapshot, compared verbatim on
	// lookup, so a hash collision degrades to a miss instead of a wrong
	// reuse.
	Free uint64
}

// Stats are a cache's cumulative counters.
type Stats struct {
	// Hits and Misses count Lookup outcomes; Evictions counts entries
	// dropped by the LRU bound or a capacity shrink.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Size is the current entry count, Capacity the LRU bound.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Enabled is false when the owning controller runs without a cache
	// (non-deterministic placer, or caching disabled by configuration).
	Enabled bool `json:"enabled"`
}

// Cache is a bounded, thread-safe LRU of values, each valid for the
// free snapshot it was stored under.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*node[K, V]
	// Intrusive LRU list: head is most recently used, tail next to evict.
	head, tail *node[K, V]
	hits       int64
	misses     int64
	evictions  int64
}

// node is one LRU slot.
type node[K comparable, V any] struct {
	key   K
	value V
	// free is the snapshot value was stored under, a copy of the
	// caller's.
	free       []int
	prev, next *node[K, V]
}

// New returns an empty cache holding at most capacity entries
// (DefaultCapacity when non-positive).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache[K, V]{capacity: capacity, entries: make(map[K]*node[K, V])}
}

// Lookup returns the value cached under key, verifying the stored free
// snapshot matches free verbatim (a signature collision is a miss, not
// a wrong value). A hit refreshes the entry's LRU position.
func (c *Cache[K, V]) Lookup(key K, free []int) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[key]; ok && slices.Equal(n.free, free) {
		c.moveToFront(n)
		c.hits++
		return n.value, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Insert stores v under key, recording the free snapshot it was
// computed against (copied) and evicting the least recently used entry
// when full. Re-inserting an existing key replaces its value and
// snapshot.
func (c *Cache[K, V]) Insert(key K, free []int, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	free = slices.Clone(free)
	if n, ok := c.entries[key]; ok {
		n.value, n.free = v, free
		c.moveToFront(n)
		return
	}
	for len(c.entries) >= c.capacity {
		c.evict()
	}
	n := &node[K, V]{key: key, value: v, free: free}
	c.entries[key] = n
	c.pushFront(n)
}

// Stats returns the cache's counters. A live Cache always reports
// Enabled; controllers running without a cache report the zero Stats.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.entries),
		Capacity:  c.capacity,
		Enabled:   true,
	}
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// evict drops the LRU tail. Callers hold c.mu.
func (c *Cache[K, V]) evict() {
	n := c.tail
	if n == nil {
		return
	}
	c.unlink(n)
	delete(c.entries, n.key)
	c.evictions++
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
