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
//   - An entry is one intrusive node on its shard's recency ring: the ring
//     links, the link to the next node of equal hash, the hash, the key
//     bytes (owned by the node) and the value. A shard indexes its nodes by
//     the 64-bit hash of the key, computed once per request and handed to
//     the probe and the insert alike; every probe then compares the whole
//     key, so a hash shared by two keys — two generations of one context —
//     never lets one answer for the other.
//   - An insert into a shard with room allocates the node and its key bytes.
//     An insert into a full shard allocates nothing in this package: the
//     evicted entry's node is recycled, key capacity included. What a
//     SuggestCache miss still allocates is the suggestion slice the entry
//     keeps. That one is not recycled with the node, and must not be: a hit
//     returns the slice to callers that read it after the shard lock is
//     released (the first hit's wire encode, the shadow scorer, every
//     Recommend* caller), so overwriting an evicted entry's array in place
//     would race with a reader of the old answer.
//   - A SuggestCache entry's wire form — the encoded `"suggestions":[...]`
//     member — is filled lazily, on the entry's first hit, never on insert:
//     a miss pays nothing for it, the first hit encodes once with
//     core.AppendSuggestionsJSON and stores the bytes back, every later hit
//     copies them. Both forms live under one (slot, gen, n, ctx) key, so a
//     reload invalidates them together and the stored bytes always equal the
//     core encoder's output for the stored suggestions.
//   - The hit path allocates nothing: the key is built in a pooled buffer
//     and compared as bytes, which is what keeps the cached /suggest path at
//     0 allocs/op.
//   - Shards are independently locked; concurrent readers of different
//     contexts never contend on one mutex.
//
// Memory: capacity bounds the entry count, not bytes. One SuggestCache entry
// holds a 104-byte node, its 16+4·len(ctx) key bytes, up to n suggestions
// (24 B each; the query strings belong to the model's dictionary) and, once
// hit, at most n × (query length + ~40 B) of wire bytes.
package cache

import (
	"bytes"
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

// Cache is a sharded LRU from byte-string keys to values of type V. All
// methods are safe for concurrent use. Values are returned as stored: callers
// that cache slices or pointers must treat them as immutable. Keys are copied
// on insert and never retained.
type Cache[V any] struct {
	shards    [shardCount]shard[V]
	capacity  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// node is one cache entry: its place in the shard's recency order, its place
// in the index (chain links the nodes whose keys share one hash), and the key
// bytes it owns — a recycled node keeps their capacity.
type node[V any] struct {
	next, prev *node[V]
	chain      *node[V]
	hash       uint64
	key        []byte
	val        V
}

// shard is one lock stripe: the hash index plus a ring of nodes through the
// sentinel root, root.next the most and root.prev the least recently used.
// items maps a key's 64-bit hash to the first node of its chain; n counts the
// entries (a chain holds more than one only when two live keys collide).
type shard[V any] struct {
	mu    sync.Mutex
	items map[uint64]*node[V]
	n     int
	root  node[V]
	cap   int
}

func (s *shard[V]) reset() {
	s.items = make(map[uint64]*node[V])
	s.n = 0
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

// find returns the entry for key, whose hash is h. A matching hash alone
// never answers: every probe compares the whole key, so two keys that share
// a hash — a context under two model generations, say — stay two entries.
func (s *shard[V]) find(h uint64, key []byte) *node[V] {
	for n := s.items[h]; n != nil; n = n.chain {
		if bytes.Equal(n.key, key) {
			return n
		}
	}
	return nil
}

// unindex removes n from the index, leaving the rest of its chain in place.
func (s *shard[V]) unindex(n *node[V]) {
	head := s.items[n.hash]
	switch {
	case head != n:
		for head.chain != n {
			head = head.chain
		}
		head.chain = n.chain
	case n.chain != nil:
		s.items[n.hash] = n.chain
	default:
		delete(s.items, n.hash)
	}
	n.chain = nil
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

// hashKey is the 64-bit FNV-1a hash every operation identifies key by: its
// low bits pick the shard, the whole of it indexes the shard. A caller that
// probes and then inserts computes it once and passes it to both.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func (c *Cache[V]) shard(h uint64) *shard[V] {
	return &c.shards[h&(shardCount-1)]
}

// GetBytes returns the cached value for key, promoting it to most recently
// used. It neither allocates nor retains key, which is what makes cache hits
// zero-allocation end to end.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) { return c.get(hashKey(key), key) }

// get is GetBytes for a caller that holds key's hash.
func (c *Cache[V]) get(h uint64, key []byte) (V, bool) {
	s := c.shard(h)
	s.mu.Lock()
	n := s.find(h, key)
	if n == nil {
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
func (c *Cache[V]) ReplaceBytes(key []byte, v V) bool { return c.replace(hashKey(key), key, v) }

// replace is ReplaceBytes for a caller that holds key's hash.
func (c *Cache[V]) replace(h uint64, key []byte, v V) bool {
	s := c.shard(h)
	s.mu.Lock()
	n := s.find(h, key)
	if n != nil {
		n.val = v
	}
	s.mu.Unlock()
	return n != nil
}

// PutBytes stores key -> v, evicting the shard's least recently used entry
// when the shard is full. Storing an existing key updates its value and
// promotes it. The entry keeps its own copy of key.
func (c *Cache[V]) PutBytes(key []byte, v V) { c.put(hashKey(key), key, v) }

// put is PutBytes for a caller that holds key's hash.
func (c *Cache[V]) put(h uint64, key []byte, v V) {
	s := c.shard(h)
	s.mu.Lock()
	if n := s.find(h, key); n != nil {
		n.val = v
		s.moveToFront(n)
		s.mu.Unlock()
		return
	}
	// A full shard recycles its least recently used node for the new entry
	// (nothing outside the shard holds a node: lookups return values), key
	// bytes included, so at steady state an insert allocates nothing here.
	var n *node[V]
	evicted := s.n >= s.cap
	if evicted {
		n = s.root.prev
		s.unindex(n)
		s.unlink(n)
	} else {
		n = &node[V]{}
		s.n++
	}
	n.hash, n.key, n.val = h, append(n.key[:0], key...), v
	n.chain = s.items[h]
	s.items[h] = n
	s.pushFront(n)
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
		n += s.n
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
