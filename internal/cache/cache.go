// Package cache provides the serving layer's result cache: a sharded,
// mutex-striped LRU keyed on compact binary strings, sized for the
// read-heavy, highly skewed traffic of online query recommendation (the
// aggregated-session frequencies follow a power law — Fig. 6 — so a small
// cache absorbs most of the head).
//
// The generic Cache[V] is the mechanism; SuggestCache is the policy that
// fronts core.Recommender.Recommend with interned-context keys and keeps
// each answer's wire form next to it.
//
// Invariants the serving layer relies on:
//
//   - Keys embed the model generation (and suggestion count), so a hot
//     reload can never serve results computed against an old model; Purge
//     on swap only releases memory early.
//   - Cached suggestion slices and wire bytes are shared across callers and
//     must be treated as immutable.
//   - An entry is one intrusive node (links, key, value) on its shard's
//     recency ring. An insert allocates the node and the key string, and
//     into a full shard only the key string: the evicted entry's node is
//     recycled.
//   - A SuggestCache entry's wire form — the encoded `"suggestions":[...]`
//     member — is filled lazily, on the entry's first hit, never on insert:
//     a miss pays nothing for it, the first hit encodes once with
//     core.AppendSuggestionsJSON and stores the bytes back, every later hit
//     copies them. Both forms live under one (slot, gen, n, ctx) key, so a
//     reload invalidates them together and the stored bytes always equal the
//     core encoder's output for the stored suggestions.
//   - The hit path allocates nothing: GetBytes looks up by a pooled byte
//     key without materialising a string, which is what keeps the cached
//     /suggest path at 0 allocs/op.
//   - Shards are independently locked; concurrent readers of different
//     contexts never contend on one mutex.
//
// Memory: capacity bounds the entry count, not bytes. One SuggestCache entry
// holds an 80-byte node, its 16+4·len(ctx)-byte key, up to n suggestions
// (16 B each; the query strings belong to the model's dictionary) and, once
// hit, at most n × (query length + ~40 B) of wire bytes.
package cache

import (
	"sync"
	"sync/atomic"
)

// shardCount stripes the LRU across independently locked shards so
// concurrent readers on different contexts never contend. Must be a power
// of two.
const shardCount = 32

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// HitRate returns Hits / (Hits + Misses), 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded LRU from string keys to values of type V. All methods
// are safe for concurrent use. Values are returned as stored: callers that
// cache slices or pointers must treat them as immutable.
type Cache[V any] struct {
	shards    [shardCount]shard[V]
	capacity  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// node is one cache entry and its place in the shard's recency order.
type node[V any] struct {
	next, prev *node[V]
	key        string
	val        V
}

// shard is one lock stripe: the key index plus a ring of nodes through the
// sentinel root, root.next the most and root.prev the least recently used.
type shard[V any] struct {
	mu    sync.Mutex
	items map[string]*node[V]
	root  node[V]
	cap   int
}

func (s *shard[V]) reset() {
	s.items = make(map[string]*node[V])
	s.root.next, s.root.prev = &s.root, &s.root
}

func (s *shard[V]) unlink(n *node[V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (s *shard[V]) pushFront(n *node[V]) {
	n.prev, n.next = &s.root, s.root.next
	n.prev.next, n.next.prev = n, n
}

func (s *shard[V]) moveToFront(n *node[V]) {
	if s.root.next != n {
		s.unlink(n)
		s.pushFront(n)
	}
}

// New returns a Cache holding at most capacity entries overall (rounded up
// to a multiple of the shard count, minimum one entry per shard).
func New[V any](capacity int) *Cache[V] {
	perShard := (capacity + shardCount - 1) / shardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{capacity: perShard * shardCount}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].reset()
	}
	return c
}

// fnv1a hashes the key to pick a shard. Inlined (rather than hash/fnv) to
// keep the hot path allocation-free.
func fnv1a(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// fnv1aBytes is fnv1a over a byte-slice key; kept as a separate copy so both
// entry points stay inlinable (a generic or conversion-based version defeats
// either inlining or the no-alloc guarantee).
func fnv1aBytes(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (c *Cache[V]) shard(key string) *shard[V] {
	return &c.shards[fnv1a(key)&(shardCount-1)]
}

func (c *Cache[V]) shardBytes(key []byte) *shard[V] {
	return &c.shards[fnv1aBytes(key)&(shardCount-1)]
}

// Get returns the cached value for key, promoting it to most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	n, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.moveToFront(n)
	v := n.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// GetBytes is Get for a key held in a (typically pooled) byte slice. The
// conversion to string happens inside the map index expression, which the
// compiler compiles to an allocation-free lookup — this is what makes cache
// hits zero-allocation end to end. The key is not retained.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	s := c.shardBytes(key)
	s.mu.Lock()
	n, ok := s.items[string(key)]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.moveToFront(n)
	v := n.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// ReplaceBytes stores v under key only if key is still cached, and reports
// whether it was: an entry evicted or purged since the caller looked it up
// is not resurrected. It is not a lookup — neither the recency order nor the
// counters move — and, like GetBytes, it neither allocates nor retains key.
func (c *Cache[V]) ReplaceBytes(key []byte, v V) bool {
	s := c.shardBytes(key)
	s.mu.Lock()
	n, ok := s.items[string(key)]
	if ok {
		n.val = v
	}
	s.mu.Unlock()
	return ok
}

// Put stores key -> v, evicting the shard's least recently used entry when
// the shard is full. Storing an existing key updates its value and promotes
// it.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shard(key)
	s.mu.Lock()
	if n, ok := s.items[key]; ok {
		n.val = v
		s.moveToFront(n)
		s.mu.Unlock()
		return
	}
	// A full shard recycles its least recently used node for the new entry
	// (nothing outside the shard holds a node: lookups return values), so at
	// steady state an insert allocates no node at all.
	var n *node[V]
	evicted := len(s.items) >= s.cap
	if evicted {
		n = s.root.prev
		delete(s.items, n.key)
		s.unlink(n)
		n.key, n.val = key, v
	} else {
		n = &node[V]{key: key, val: v}
	}
	s.pushFront(n)
	s.items[key] = n
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the current number of cached entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Purge drops every entry. Counters are preserved: a purge (e.g. on model
// reload) is an operational event, not a statistics reset.
func (c *Cache[V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.reset()
		s.mu.Unlock()
	}
}

// Stats snapshots the effectiveness counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.capacity,
	}
}
