package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// getKey, putKey and replaceKey probe, store and replace by key alone,
// hashing it the way every entry point does. putKey stores whatever the
// admission verdict.
func getKey[V any](c *Cache[V], key []byte) (V, bool) {
	v, hit, _ := c.get(hashKey(key), key)
	return v, hit
}

func putKey[V any](c *Cache[V], key []byte, v V) { c.put(hashKey(key), key, v) }

func replaceKey[V any](c *Cache[V], key []byte, v V) bool { return c.replace(hashKey(key), key, v) }

func TestGetPutAndCounters(t *testing.T) {
	c := New[int](64)
	if _, ok := getKey(c, []byte("a")); ok {
		t.Fatal("hit on empty cache")
	}
	putKey(c, []byte("a"), 1)
	putKey(c, []byte("b"), 2)
	if v, ok := getKey(c, []byte("a")); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	putKey(c, []byte("a"), 10) // update
	if v, _ := getKey(c, []byte("a")); v != 10 {
		t.Fatalf("updated Get(a) = %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v", got)
	}
}

// sameShardKeys returns n distinct keys, "x" and then prefix0, prefix1, ...,
// that all land in the shard of "x".
func sameShardKeys[V any](c *Cache[V], prefix string, n int) [][]byte {
	keys := [][]byte{[]byte("x")}
	s := c.shard(hashKey(keys[0]))
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Appendf(nil, "%s%d", prefix, i); c.shard(hashKey(k)) == s {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestLRUEvictionOrder(t *testing.T) {
	// A capacity of 1 entry per shard lets us exercise eviction
	// deterministically by hammering keys that land in the same shard.
	c := New[int](shardCount) // 1 per shard
	keys := sameShardKeys(c, "k", 3)
	putKey(c, keys[0], 0)
	putKey(c, keys[1], 1) // evicts keys[0]
	if _, ok := getKey(c, keys[0]); ok {
		t.Fatal("LRU entry not evicted")
	}
	if v, ok := getKey(c, keys[1]); !ok || v != 1 {
		t.Fatal("fresh entry missing")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestLRUPromotionOnGet(t *testing.T) {
	c := New[int](shardCount * 2) // 2 per shard
	keys := sameShardKeys(c, "p", 3)
	putKey(c, keys[0], 0)
	putKey(c, keys[1], 1)
	getKey(c, keys[0])    // promote oldest
	putKey(c, keys[2], 2) // should evict keys[1], not keys[0]
	if _, ok := getKey(c, keys[0]); !ok {
		t.Fatal("promoted entry was evicted")
	}
	if _, ok := getKey(c, keys[1]); ok {
		t.Fatal("unpromoted entry survived")
	}
}

// TestHashCollision forces two keys onto one hash (the hashed entry points
// take the hash from the caller) and checks that the index keeps them apart:
// neither answers for the other, replace touches only its own
// key, and evicting either one — the chain's head or its tail — leaves the
// other reachable.
func TestHashCollision(t *testing.T) {
	const h = 0xfeed
	a, b, other := []byte("generation 1"), []byte("generation 2"), []byte("someone else")
	for _, evictHead := range []bool{false, true} {
		c := New[string](shardCount * 2) // two per shard
		if _, ok, _ := c.get(h, a); ok {
			t.Fatal("hit on an empty cache")
		}
		c.put(h, a, "A")
		if v, ok, _ := c.get(h, b); ok {
			t.Fatalf("b, never stored, answered with a's hash: %q", v)
		}
		c.put(h, b, "B") // chained in front of a
		if c.Len() != 2 {
			t.Fatalf("two colliding keys make %d entries", c.Len())
		}
		if va, _, _ := c.get(h, a); va != "A" {
			t.Fatalf("a = %q", va)
		}
		if vb, _, _ := c.get(h, b); vb != "B" {
			t.Fatalf("b = %q", vb)
		}
		if c.replace(h, other, "X") {
			t.Fatal("replace found a key that was never stored, by hash alone")
		}
		if !c.replace(h, a, "A2") {
			t.Fatal("replace missed a")
		}
		va, _, _ := c.get(h, a)
		vb, _, _ := c.get(h, b) // b is now the most recently used, a the least
		if va != "A2" || vb != "B" {
			t.Fatalf("after replacing a: a = %q, b = %q", va, vb)
		}
		gone, kept, keptVal := a, b, "B"
		if evictHead {
			c.get(h, a) // now b, the chain's head, is the least recently used
			gone, kept, keptVal = b, a, "A2"
		}
		c.put(h+shardCount, other, "X") // same shard, its own hash: evicts
		if _, ok, _ := c.get(h, gone); ok {
			t.Fatalf("evictHead=%v: the least recently used of the pair survived", evictHead)
		}
		if v, ok, _ := c.get(h, kept); !ok || v != keptVal {
			t.Fatalf("evictHead=%v: evicting one key of the pair lost the other: %q, %v", evictHead, v, ok)
		}
		if v, ok, _ := c.get(h+shardCount, other); !ok || v != "X" {
			t.Fatalf("evictHead=%v: the evicting entry = %q, %v", evictHead, v, ok)
		}
		if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
			t.Fatalf("evictHead=%v: %+v, want 2 entries after 1 eviction", evictHead, st)
		}
	}
}

func TestPurge(t *testing.T) {
	c := New[string](128)
	for i := 0; i < 50; i++ {
		putKey(c, fmt.Appendf(nil, "k%d", i), "v")
	}
	if c.Len() != 50 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	if _, ok := getKey(c, []byte("k0")); ok {
		t.Fatal("entry survived purge")
	}
	// The ghost goes with the entries: a key seen before the purge is a
	// first sighting after it.
	k := []byte("seen once")
	getKey(c, k)
	c.Purge()
	if _, hit, admit := c.get(hashKey(k), k); hit || admit {
		t.Fatalf("after a purge the ghost still admitted %q (hit %v)", k, hit)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Appendf(nil, "k%d", i%100)
				putKey(c, k, i)
				if v, ok := getKey(c, k); ok && v < 0 {
					t.Error("impossible value")
				}
				if i%50 == 0 && g == 0 {
					c.Purge()
				}
				_ = c.Len()
				_ = c.Stats()
			}
		}(g)
	}
	wg.Wait()
}

func testRecommender(t testing.TB) core.Recommender {
	t.Helper()
	d := query.NewDict()
	a, b, c := d.Intern("o2"), d.Intern("o2 mobile"), d.Intern("o2 mobile phones")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b, c})
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	rec, err := core.TrainFromSessions(d, sessions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// recommend looks a string context up in slot 0, a one-model handler's key
// space.
func recommend(sc *SuggestCache, gen uint64, rec core.Recommender, context []string, n int) []core.Suggestion {
	out, _ := sc.RecommendSlotHit(0, gen, rec, core.InternContext(rec.Dict(), context), n)
	return out
}

// TestSuggestCacheEquivalence: cached answers must be identical to what the
// recommender computes directly, on hit and on either kind of miss.
func TestSuggestCacheEquivalence(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(128)
	ctx := []string{"o2"}
	want := core.Recommend(rec, ctx, 5)

	refused := recommend(sc, 1, rec, ctx, 5)
	stored := recommend(sc, 1, rec, ctx, 5)
	hit := recommend(sc, 1, rec, ctx, 5)
	for name, got := range map[string][]core.Suggestion{"refused miss": refused, "stored miss": stored, "hit": hit} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d suggestions, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: suggestion %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	st := sc.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Refused != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses, 1 refused, 1 entry", st)
	}
}

// TestSuggestCacheKeying: distinct n, distinct contexts and distinct model
// generations must never share an entry; normalised spellings must.
func TestSuggestCacheKeying(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(128)

	recommend(sc, 1, rec, []string{"o2"}, 5)
	recommend(sc, 1, rec, []string{"o2"}, 5) // second sight: stored
	if got := recommend(sc, 1, rec, []string{"o2"}, 1); len(got) != 1 {
		t.Fatalf("n=1 after n=5 returned %d suggestions", len(got))
	}
	if h := sc.Stats().Hits; h != 0 {
		t.Fatalf("different n produced a hit (%d)", h)
	}
	// Normalised duplicate context: same interned IDs, so it must hit.
	recommend(sc, 1, rec, []string{"  O2 "}, 5)
	if h := sc.Stats().Hits; h != 1 {
		t.Fatalf("normalised duplicate missed (hits=%d)", h)
	}
	// New generation: same context must miss again.
	recommend(sc, 2, rec, []string{"o2"}, 5)
	if h := sc.Stats().Hits; h != 1 {
		t.Fatalf("new generation produced a stale hit (hits=%d)", h)
	}
}

func TestSuggestCacheEmptyContext(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(16)
	if got := recommend(sc, 1, rec, nil, 5); got != nil {
		t.Fatalf("empty context = %v", got)
	}
	if got := recommend(sc, 1, rec, []string{"never seen"}, 5); got != nil {
		t.Fatalf("unknown context = %v", got)
	}
}

func TestSuggestCacheConcurrent(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(64)
	want := core.Recommend(rec, []string{"o2"}, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				got := recommend(sc, 1, rec, []string{"o2"}, 5)
				if len(got) != len(want) || got[0] != want[0] {
					t.Error("concurrent cached recommendation diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	st := sc.Stats()
	if st.Hits+st.Misses != 8*300 {
		t.Fatalf("lookup count = %d, want %d", st.Hits+st.Misses, 8*300)
	}
}

// TestSuggestCacheSlotIsolation: the slot dimension of the key must keep a
// fleet of models sharing one LRU from ever answering across slots, while
// repeated lookups within one slot still hit.
func TestSuggestCacheSlotIsolation(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(128)
	ctx := core.InternContext(rec.Dict(), []string{"o2"})

	sc.RecommendSlot(1, 1, rec, ctx, 5)
	a := sc.RecommendSlot(1, 1, rec, ctx, 5) // second sight: stored
	if h := sc.Stats().Hits; h != 0 {
		t.Fatalf("first slot-1 lookups hit (%d)", h)
	}
	// Same slot, same generation: hit, and the shared slice comes back.
	b := sc.RecommendSlot(1, 1, rec, ctx, 5)
	if h := sc.Stats().Hits; h != 1 {
		t.Fatalf("slot-1 repeat missed (hits=%d)", h)
	}
	if &a[0] != &b[0] {
		t.Fatal("slot hit did not return the cached slice")
	}
	// Different slot, same (gen, ctx, n): must miss.
	sc.RecommendSlot(2, 1, rec, ctx, 5)
	if h := sc.Stats().Hits; h != 1 {
		t.Fatalf("slot 2 hit slot 1's entry (hits=%d)", h)
	}
	// Slot 0, a one-model handler's key space, keeps its entries like
	// any other: RecommendSlotHit must hit what RecommendSlot(0, ...) stored.
	sc.RecommendSlot(0, 1, rec, ctx, 5)
	sc.RecommendSlot(0, 1, rec, ctx, 5)
	if _, hit := sc.RecommendSlotHit(0, 1, rec, ctx, 5); !hit {
		t.Fatal("slot 0 lookup missed slot 0's entry")
	}
	if h := sc.Stats().Hits; h != 2 {
		t.Fatalf("slot 0 lookups counted %d hits, want 2", h)
	}
	// Bumping only the slot's generation must invalidate only that slot.
	sc.RecommendSlot(1, 2, rec, ctx, 5)
	if h := sc.Stats().Hits; h != 2 {
		t.Fatalf("stale generation answered after slot bump (hits=%d)", h)
	}
}

// TestSuggestCacheBatchSlot: the pre-interned batch entry point must resolve
// hits from the slot's key space and score only the misses, storing those it
// has seen before.
func TestSuggestCacheBatchSlot(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(128)
	ctxA := core.InternContext(rec.Dict(), []string{"o2"})
	ctxB := core.InternContext(rec.Dict(), []string{"o2", "o2 mobile"})

	sc.RecommendSlot(3, 1, rec, ctxA, 5)
	warm := sc.RecommendSlot(3, 1, rec, ctxA, 5) // second sight: stored
	out := make([][]core.Suggestion, 3)
	batch := []query.Seq{ctxA, ctxB, nil}
	sc.RecommendBatchSlot(3, 1, rec, batch, []int{5, 5, 5}, out)
	if st := sc.Stats(); st.Entries != 1 {
		t.Fatalf("the batch stored its first sight of ctxB: %+v", st)
	}
	sc.RecommendBatchSlot(3, 1, rec, batch, []int{5, 5, 5}, out) // ctxB's second sight
	if len(out[0]) == 0 || &out[0][0] != &warm[0] {
		t.Fatal("batch did not reuse the slot's cached entry")
	}
	if len(out[1]) == 0 {
		t.Fatal("batch miss produced no suggestions")
	}
	if out[2] != nil {
		t.Fatalf("empty context produced %v", out[2])
	}
	// The batch's miss must now be a hit for the single-context path.
	hit := sc.RecommendSlot(3, 1, rec, ctxB, 5)
	if &hit[0] != &out[1][0] {
		t.Fatal("batch miss was not inserted under the slot key")
	}
}
