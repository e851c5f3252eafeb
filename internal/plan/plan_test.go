package plan

import (
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/sched"
)

func key(n uint64) Key {
	return Key{Circuit: circuit.Fingerprint{Hash: n, Qubits: 4, Gates: 8}, Cloud: 1, Free: n}
}

func entry(assign ...int) *Entry {
	return &Entry{Assign: assign, DAG: &sched.RemoteDAG{}}
}

// TestLookupInsert: basic hit/miss behavior and counter accounting.
func TestLookupInsert(t *testing.T) {
	c := New(4)
	free := []int{5, 5, 5}
	if _, ok := c.Lookup(key(1), free); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(key(1), free, entry(0, 0, 1))
	e, ok := c.Lookup(key(1), free)
	if !ok || len(e.Assign) != 3 {
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
	c := New(4)
	c.Insert(key(7), []int{5, 5, 5}, entry(0, 1, 2))
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
	c := New(4)
	scratch := []int{5, 5, 5}
	c.Insert(key(1), scratch, entry(0))
	scratch[0] = 9 // the controller reuses its scratch next round
	if _, ok := c.Lookup(key(1), []int{5, 5, 5}); !ok {
		t.Fatal("mutating the caller's snapshot buffer corrupted the entry")
	}
}

// TestLRUEviction: filling past capacity evicts least-recently-used
// first, and a hit refreshes recency.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	free := []int{5}
	c.Insert(key(1), free, entry(0))
	c.Insert(key(2), free, entry(0))
	if _, ok := c.Lookup(key(1), free); !ok { // refresh 1; 2 is now LRU
		t.Fatal("miss on resident entry")
	}
	c.Insert(key(3), free, entry(0)) // evicts 2
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
	c := New(2)
	free := []int{5}
	c.Insert(key(1), free, entry(0))
	c.Insert(key(1), free, entry(1))
	if c.Len() != 1 {
		t.Fatalf("len = %d after re-insert, want 1", c.Len())
	}
	e, ok := c.Lookup(key(1), free)
	if !ok || e.Assign[0] != 1 {
		t.Fatalf("re-insert did not replace: ok=%v assign=%v", ok, e.Assign)
	}
}
