package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// lookupKey is the protocol every SuggestCache entry point follows: probe,
// and on a miss store only what the probe admitted. It reports the hit and,
// for a miss, whether the key was stored.
func lookupKey[V any](c *Cache[V], key []byte, v V) (hit, stored bool) {
	h := hashKey(key)
	_, hit, admit := c.get(h, key)
	if admit {
		c.put(h, key, v)
	}
	return hit, admit
}

func TestFirstSightNotStored(t *testing.T) {
	c := New[int](64) // two per shard: room to spare
	if hit, stored := lookupKey(c, []byte("once"), 1); hit || stored {
		t.Fatalf("first sight: hit %v, stored %v", hit, stored)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 || st.Refused != 1 {
		t.Fatalf("after a first sight: %+v, want 1 refused miss and no entry", st)
	}

	rec := testRecommender(t)
	sc := NewSuggestCache(64)
	ctx := core.InternContext(rec.Dict(), []string{"o2"})
	if a, hit := sc.AnswerSlot(0, 1, rec, ctx, 5, nil); hit || len(a.Recs) == 0 {
		t.Fatalf("first sight: hit %v, %d suggestions", hit, len(a.Recs))
	}
	if st := sc.Stats(); st.Entries != 0 || st.Refused != 1 {
		t.Fatalf("SuggestCache after a first sight: %+v, want 1 refusal and no entry", st)
	}
}

func TestSecondSightStored(t *testing.T) {
	c := New[int](64)
	key := []byte("twice")
	lookupKey(c, key, 1)
	if hit, stored := lookupKey(c, key, 2); hit || !stored {
		t.Fatalf("second sight: hit %v, stored %v", hit, stored)
	}
	if v, ok := getKey(c, key); !ok || v != 2 {
		t.Fatalf("third sight = %v, %v, want the stored 2", v, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 2 || st.Refused != 1 {
		t.Fatalf("after three sightings: %+v", st)
	}

	rec := testRecommender(t)
	sc := NewSuggestCache(64)
	ctx := core.InternContext(rec.Dict(), []string{"o2"})
	sc.AnswerSlot(0, 1, rec, ctx, 5, nil)
	stored, hit := sc.AnswerSlot(0, 1, rec, ctx, 5, nil)
	if hit {
		t.Fatal("the second sight hit")
	}
	again, hit := sc.AnswerSlot(0, 1, rec, ctx, 5, nil)
	if !hit || &again.Recs[0] != &stored.Recs[0] {
		t.Fatalf("the third sight did not hit the stored entry (hit %v)", hit)
	}
}

// TestSecondSightOnlyWithinGhost: the ghost remembers the shard's last cap
// refusals; a key pushed out by cap newer ones is a first sight again.
func TestSecondSightOnlyWithinGhost(t *testing.T) {
	c := New[int](shardCount * 2) // two per shard: a ghost of two
	keys := sameShardKeys(c, "g", 4)
	lookupKey(c, keys[0], 0)
	lookupKey(c, keys[1], 1)
	if _, stored := lookupKey(c, keys[0], 0); !stored {
		t.Fatal("a key one refusal back was not admitted")
	}
	lookupKey(c, keys[2], 2)
	lookupKey(c, keys[3], 3) // keys[1] is now three refusals back
	if _, stored := lookupKey(c, keys[1], 1); stored {
		t.Fatal("a key older than the ghost was admitted")
	}
}

func TestEvictedKeyStoredOnNextMiss(t *testing.T) {
	c := New[int](shardCount) // one per shard
	keys := sameShardKeys(c, "e", 2)
	for _, k := range keys { // each stored on its second sight; keys[1] evicts keys[0]
		lookupKey(c, k, 0)
		lookupKey(c, k, 0)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("%+v, want one eviction", st)
	}
	if hit, stored := lookupKey(c, keys[0], 0); hit || !stored {
		t.Fatalf("the evicted key on its next miss: hit %v, stored %v", hit, stored)
	}
	if v, ok := getKey(c, keys[0]); !ok || v != 0 {
		t.Fatal("the evicted key was not stored again")
	}
}

// TestDistinctCycleLongerThanGhostNeverStores: keys that come back only
// after more than a ghost's worth of other misses in their shard are never
// admitted — not even into shards with room — so the cycle never inserts,
// evicts or hits.
func TestDistinctCycleLongerThanGhostNeverStores(t *testing.T) {
	c := New[int](4 * shardCount)
	var keys [][]byte
	for i := 0; i < 64*shardCount; i++ {
		keys = append(keys, fmt.Appendf(nil, "cycle-%d", i))
	}
	for lap := 0; lap < 5; lap++ {
		for _, k := range keys {
			lookupKey(c, k, lap)
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.Entries != 0 || st.Evictions != 0 || st.Refused != st.Misses || st.Misses != uint64(5*len(keys)) {
		t.Fatalf("5 laps of %d distinct keys: %+v", len(keys), st)
	}
}

// lru is the plain-LRU reference: one list, every miss stored.
type lru struct {
	cap   int
	order *list.List
	items map[int]*list.Element
	hits  int
}

func (l *lru) lookup(k int) {
	if e, ok := l.items[k]; ok {
		l.order.MoveToFront(e)
		l.hits++
		return
	}
	if l.order.Len() >= l.cap {
		delete(l.items, l.order.Remove(l.order.Back()).(int))
	}
	l.items[k] = l.order.PushFront(k)
}

// TestAdmissionBeatsLRUOnZipf: on a power-law stream (the paper's Fig. 6
// shape) the second-sight cache keeps more of the head than a plain LRU of
// the same capacity that stores every miss.
func TestAdmissionBeatsLRUOnZipf(t *testing.T) {
	const capacity, keys, lookups = 512, 20000, 200000
	zipf := rand.NewZipf(rand.New(rand.NewSource(43)), 1.05, 2, keys-1)
	c := New[int](capacity)
	ref := &lru{cap: capacity, order: list.New(), items: map[int]*list.Element{}}
	key := make([]byte, 0, 16)
	for i := 0; i < lookups; i++ {
		k := int(zipf.Uint64())
		key = fmt.Appendf(key[:0], "z%d", k)
		lookupKey(c, key, k)
		ref.lookup(k)
	}
	st := c.Stats()
	t.Logf("%d lookups: admission %d hits, plain LRU %d", lookups, st.Hits, ref.hits)
	if int(st.Hits) <= ref.hits {
		t.Fatalf("second-sight cache %d hits, plain LRU %d", st.Hits, ref.hits)
	}
}
