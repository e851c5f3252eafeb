package plan

import (
	"fmt"
	"sync"
	"testing"

	"cloudqc/internal/circuit"
)

// entry is the value the tests cache: a stand-in for a compiled plan.
type entry struct{ assign []int }

func newTestCache(capacity int) *Cache[Key, *entry] { return New[Key, *entry](capacity) }

func key(n uint64) Key {
	return Key{Circuit: circuit.Fingerprint{Hash: n, Qubits: 4, Gates: 8}, Cloud: 1, Free: n}
}

func newEntry(assign ...int) *entry { return &entry{assign: assign} }

// TestLookupInsert: basic hit/miss behavior and counter accounting.
func TestLookupInsert(t *testing.T) {
	c := newTestCache(4)
	free := []int{5, 5, 5}
	if _, ok := c.Lookup(key(1), free); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(key(1), free, newEntry(0, 0, 1))
	e, ok := c.Lookup(key(1), free)
	if !ok || len(e.assign) != 3 {
		t.Fatalf("lookup after insert: ok=%v entry=%+v", ok, e)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 || s.Capacity != 4 || !s.Enabled {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSnapshotVerification: a lookup whose key matches but whose free
// snapshot differs (a signature collision, or capacity drift under a
// colliding hash) must miss rather than return a plan compiled for a
// different cloud state — the invariant that keeps cached placements
// from being reused where they no longer fit.
func TestSnapshotVerification(t *testing.T) {
	c := newTestCache(4)
	c.Insert(key(7), []int{5, 5, 5}, newEntry(0, 1, 2))
	if _, ok := c.Lookup(key(7), []int{5, 4, 5}); ok {
		t.Fatal("hit despite differing free snapshot under the same key")
	}
	if _, ok := c.Lookup(key(7), []int{5, 5}); ok {
		t.Fatal("hit despite differing snapshot length")
	}
	if _, ok := c.Lookup(key(7), []int{5, 5, 5}); !ok {
		t.Fatal("miss on the matching snapshot")
	}
}

// TestInsertCopiesSnapshot: the cache must not alias the caller's
// (reused scratch) snapshot buffer.
func TestInsertCopiesSnapshot(t *testing.T) {
	c := newTestCache(4)
	scratch := []int{5, 5, 5}
	c.Insert(key(1), scratch, newEntry(0))
	scratch[0] = 9 // the controller reuses its scratch next round
	if _, ok := c.Lookup(key(1), []int{5, 5, 5}); !ok {
		t.Fatal("mutating the caller's snapshot buffer corrupted the entry")
	}
}

// TestLRUEviction: filling past capacity evicts least-recently-used
// first, and a hit refreshes recency.
func TestLRUEviction(t *testing.T) {
	c := newTestCache(2)
	free := []int{5}
	c.Insert(key(1), free, newEntry(0))
	c.Insert(key(2), free, newEntry(0))
	if _, ok := c.Lookup(key(1), free); !ok { // refresh 1; 2 is now LRU
		t.Fatal("miss on resident entry")
	}
	c.Insert(key(3), free, newEntry(0)) // evicts 2
	if _, ok := c.Lookup(key(2), free); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range []Key{key(1), key(3)} {
		if _, ok := c.Lookup(k, free); !ok {
			t.Fatalf("recently used entry %v was evicted", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Size != 2 {
		t.Fatalf("stats after eviction = %+v", s)
	}
}

// TestReinsertReplaces: inserting an existing key swaps the entry
// without growing the cache.
func TestReinsertReplaces(t *testing.T) {
	c := newTestCache(2)
	free := []int{5}
	c.Insert(key(1), free, newEntry(0))
	c.Insert(key(1), free, newEntry(1))
	if c.Len() != 1 {
		t.Fatalf("len = %d after re-insert, want 1", c.Len())
	}
	e, ok := c.Lookup(key(1), free)
	if !ok || e.assign[0] != 1 {
		t.Fatalf("re-insert did not replace: ok=%v assign=%v", ok, e.assign)
	}
}

// TestNilSnapshot: a value that depends on no capacity state is stored
// and found under a nil snapshot, and a capacity snapshot does not
// match it.
func TestNilSnapshot(t *testing.T) {
	c := newTestCache(2)
	c.Insert(key(1), nil, newEntry(3))
	if e, ok := c.Lookup(key(1), nil); !ok || e.assign[0] != 3 {
		t.Fatalf("nil-snapshot lookup: ok=%v entry=%+v", ok, e)
	}
	if _, ok := c.Lookup(key(1), []int{5}); ok {
		t.Fatal("a capacity snapshot matched a nil-snapshot entry")
	}
}

// TestConcurrentLookupInsert: goroutines sharing one cache, as
// experiment workers and federation shards share one placer's memos,
// look up and insert overlapping keys past the bound. Every hit is the
// value stored under its key and snapshot, and the counters add up.
// Run it under -race.
func TestConcurrentLookupInsert(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
		keys    = 24
	)
	c := newTestCache(16)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := uint64((i*7 + w) % keys)
				free := []int{int(n), 5}
				if e, ok := c.Lookup(key(n), free); ok {
					if len(e.assign) != 1 || e.assign[0] != int(n) {
						errs <- fmt.Sprintf("key %d: hit returned %v", n, e.assign)
						return
					}
					continue
				}
				c.Insert(key(n), free, newEntry(int(n)))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	s := c.Stats()
	if s.Hits+s.Misses != workers*rounds || s.Size > 16 || s.Size != c.Len() {
		t.Fatalf("stats after concurrent use = %+v", s)
	}
}
