package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// TestSuggestCacheHitZeroAllocs pins the satellite property: a warm cache
// hit — key build, shard probe, LRU promotion — allocates nothing at all.
func TestSuggestCacheHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	rec := testRecommender(t)
	sc := NewSuggestCache(128)
	ctx := []string{"o2", "o2 mobile"}
	sc.Recommend(1, rec, ctx, 5) // warm: populate entry + pool
	allocs := testing.AllocsPerRun(200, func() {
		if got := sc.Recommend(1, rec, ctx, 5); len(got) == 0 {
			t.Fatal("hit returned nothing")
		}
	})
	if allocs > 0.05 {
		t.Fatalf("cache hit allocates %.2f times per op, want 0", allocs)
	}

	ictx := core.InternContext(rec.Dict(), ctx)
	allocs = testing.AllocsPerRun(200, func() {
		if got := sc.RecommendInterned(1, rec, ictx, 5); len(got) == 0 {
			t.Fatal("interned hit returned nothing")
		}
	})
	if allocs > 0.05 {
		t.Fatalf("interned cache hit allocates %.2f times per op, want 0", allocs)
	}
}

// missCycle returns a cycle of distinct covered contexts, many per shard, all
// of one length: looked up in turn through a cache of one entry per shard,
// every one misses, inserts and (once the shards are full) evicts.
func missCycle(rec core.Recommender) []query.Seq {
	base := core.InternContext(rec.Dict(), []string{"o2", "o2 mobile"})
	var ctxs []query.Seq
	for i := 0; i < 16*shardCount; i++ {
		ctx := make(query.Seq, 9) // i in binary, spelled with two known queries
		for bit := range ctx {
			ctx[bit] = base[(i>>bit)&1]
		}
		ctxs = append(ctxs, ctx)
	}
	return ctxs
}

// TestSuggestCacheMissAllocs pins the miss path: one miss through a full
// cache — descent, insert, eviction — allocates once: the suggestion slice
// the entry retains. The entry's node (links, key bytes and value) is the
// evicted entry's, recycled, and the key is hashed and compared as bytes,
// never made a string. A second allocation would be a key or node per
// insert, or a wire form built on insert. (The slice itself cannot be
// recycled with the node: see the package comment.)
func TestSuggestCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	rec := testRecommender(t)
	sc := NewSuggestCache(shardCount) // one entry per shard
	ctxs := missCycle(rec)
	next := 0
	lookup := func() {
		if _, hit := sc.AnswerSlot(0, 1, rec, ctxs[next%len(ctxs)], 5); hit {
			t.Fatal("the distinct cycle hit")
		}
		next++
	}
	for i := 0; i < len(ctxs); i++ { // fill every shard, warm the pools
		lookup()
	}
	before := sc.Stats()
	allocs := testing.AllocsPerRun(len(ctxs), lookup)
	after := sc.Stats()
	if runs := after.Misses - before.Misses; after.Evictions-before.Evictions != runs {
		t.Fatalf("%d misses evicted %d entries, want one each", runs, after.Evictions-before.Evictions)
	}
	if allocs != 1 {
		t.Fatalf("miss + insert + evict allocates %.2f times, want 1", allocs)
	}
}

// TestSuggestCacheBatchMissAllocs is the batch twin: a batch of misses
// through a full cache allocates one suggestion slice per miss plus, per
// batch, RecommendBatchIDs' result table — no key string, no context clone,
// no bookkeeping slices, and the closure handed to the batched descent stays
// on the stack now that no goroutine can capture it.
func TestSuggestCacheBatchMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	const batch = 64
	rec := testRecommender(t)
	sc := NewSuggestCache(shardCount)
	ctxs := missCycle(rec)
	ns := make([]int, batch)
	for i := range ns {
		ns[i] = 5
	}
	out := make([]Answer, batch)
	next := 0
	lookup := func() {
		lo := next % len(ctxs)
		sc.AnswerBatchSlot(0, 1, rec, ctxs[lo:lo+batch], ns, out)
		next += batch
	}
	for i := 0; i < 2*len(ctxs)/batch; i++ {
		lookup()
	}
	before := sc.Stats()
	allocs := testing.AllocsPerRun(len(ctxs)/batch, lookup)
	after := sc.Stats()
	if after.Hits != before.Hits || after.Evictions-before.Evictions != after.Misses-before.Misses {
		t.Fatalf("the batches did not miss and evict throughout: %+v -> %+v", before, after)
	}
	if allocs != batch+1 {
		t.Fatalf("a batch of %d misses allocates %.2f times, want %d (one per miss, the result table)", batch, allocs, batch+1)
	}
}

// TestRecommendBatchEquivalence: the batched front must agree with the
// single-context front on hits, misses, unknown and empty contexts, and its
// entries must be shared with subsequent single lookups.
func TestRecommendBatchEquivalence(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(128)
	contexts := [][]string{
		{"o2"},
		{"o2", "o2 mobile"},
		{"never seen"},
		{},
		{"o2"}, // duplicate of [0] with a different n
	}
	ns := []int{5, 1, 5, 5, 2}
	out := make([][]core.Suggestion, len(contexts))
	sc.RecommendBatch(1, rec, contexts, ns, out)
	for i := range contexts {
		want := core.RecommendIDs(rec, core.InternContext(rec.Dict(), contexts[i]), ns[i])
		if len(out[i]) != len(want) {
			t.Fatalf("item %d: batch %d suggestions, direct %d", i, len(out[i]), len(want))
		}
		for j := range want {
			if out[i][j] != want[j] {
				t.Fatalf("item %d rank %d: %+v vs %+v", i, j, out[i][j], want[j])
			}
		}
	}
	// The batch populated the cache: single lookups must now hit.
	st := sc.Stats()
	sc.Recommend(1, rec, []string{"o2"}, 5)
	if got := sc.Stats().Hits; got != st.Hits+1 {
		t.Fatalf("single lookup after batch missed (hits %d -> %d)", st.Hits, got)
	}
	// And a second identical batch is all hits.
	out2 := make([][]core.Suggestion, len(contexts))
	before := sc.Stats().Misses
	sc.RecommendBatch(1, rec, contexts, ns, out2)
	if got := sc.Stats().Misses; got != before {
		t.Fatalf("repeat batch missed (%d -> %d)", before, got)
	}
}
