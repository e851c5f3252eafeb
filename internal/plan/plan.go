// Package plan is CloudQC's compile-once plan cache: the expensive,
// state-independent artifacts of admitting a job — the placement
// assignment and the contracted remote DAG skeleton with its
// critical-path priorities — memoized per (circuit fingerprint, cloud
// shape, free-capacity signature).
//
// Workload generators and the cloudqcd service draw jobs from a small
// library of circuit templates, yet the controller used to re-run the
// full placement pipeline (community detection → multilevel
// partitioning → part mapping) and re-contract the remote DAG for every
// arriving job. The cache makes repeated templates nearly free to
// admit while staying bit-identical to the cold path: entries are
// keyed by the exact per-QPU free-computing snapshot the placer saw,
// and a deterministic placer is a pure function of (circuit structure,
// free snapshot), so a hit returns precisely the placement a fresh
// Place call would have computed — and, a fortiori, one whose QPUs
// still have the room it needs. Any change in free capacity changes
// the signature and forces the full placer.
//
// The same argument covers failure: a miss whose key and snapshot the
// placer already found infeasible is infeasible again. A controller
// therefore keeps a second Cache of the same size as a verdict cache,
// whose entries carry only Err, and consults it after a plan-cache
// miss; queued jobs retried after every release mostly ask questions
// the placer has answered. Keeping the verdicts in a cache of their
// own means a verdict never evicts a plan, and the plan cache's
// counters stay those of plan lookups alone.
//
// The cache is bounded (LRU eviction), counts hits/misses/evictions,
// and is safe for concurrent use. One cache belongs to one controller
// configuration: the key does not cover the placer's parameters or the
// latency model, which are fixed per controller.
package plan

import (
	"sync"

	"cloudqc/internal/circuit"
	"cloudqc/internal/sched"
)

// DefaultCapacity bounds a controller's plan cache when no explicit
// size is configured: enough for a qlib-scale template library across
// dozens of distinct cloud occupancy states.
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

// Entry is one cached compile result. All fields are shared, read-only:
// concurrent jobs admitted from the same entry alias the same
// assignment slice, DAG skeleton, and priority slice, none of which
// execution mutates (sched.JobState keeps its own per-run arrays).
type Entry struct {
	// Assign maps each qubit to its QPU — Placement.QubitToQPU. Callers
	// must not modify it.
	Assign []int
	// DAG is the contracted remote DAG skeleton for Assign.
	DAG *sched.RemoteDAG
	// Prio is DAG.Priorities(), computed once per template instead of
	// once per job.
	Prio []int
	// Err is a remembered infeasible verdict: set only on the entries
	// of a verdict cache, whose other fields stay nil. The placer found
	// no placement for the key's circuit under the entry's snapshot.
	Err error

	// free is the exact snapshot the entry was compiled under, verified
	// on lookup.
	free []int
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

// Cache is a bounded, thread-safe LRU of compile plans.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*node
	// Intrusive LRU list: head is most recently used, tail next to evict.
	head, tail *node
	hits       int64
	misses     int64
	evictions  int64
}

// node is one LRU slot.
type node struct {
	key        Key
	entry      *Entry
	prev, next *node
}

// New returns an empty cache holding at most capacity entries
// (DefaultCapacity when non-positive).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{capacity: capacity, entries: make(map[Key]*node)}
}

// Lookup returns the plan cached under key, verifying the stored free
// snapshot matches free verbatim (a signature collision is a miss, not
// a wrong plan). A hit refreshes the entry's LRU position.
func (c *Cache) Lookup(key Key, free []int) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries[key]; ok && sameSnapshot(n.entry.free, free) {
		c.moveToFront(n)
		c.hits++
		return n.entry, true
	}
	c.misses++
	return nil, false
}

// Insert stores a freshly compiled plan under key, recording the free
// snapshot it was compiled against (copied) and evicting the least
// recently used entry when full. Re-inserting an existing key replaces
// its entry.
func (c *Cache) Insert(key Key, free []int, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.free = append([]int(nil), free...)
	if n, ok := c.entries[key]; ok {
		n.entry = e
		c.moveToFront(n)
		return
	}
	for len(c.entries) >= c.capacity {
		c.evict()
	}
	n := &node{key: key, entry: e}
	c.entries[key] = n
	c.pushFront(n)
}

// Stats returns the cache's counters. A live Cache always reports
// Enabled; controllers running without a cache report the zero Stats.
func (c *Cache) Stats() Stats {
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
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func sameSnapshot(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evict drops the LRU tail. Callers hold c.mu.
func (c *Cache) evict() {
	n := c.tail
	if n == nil {
		return
	}
	c.unlink(n)
	delete(c.entries, n.key)
	c.evictions++
}

func (c *Cache) moveToFront(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) pushFront(n *node) {
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

func (c *Cache) unlink(n *node) {
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
