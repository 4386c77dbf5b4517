package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// TestSuggestCacheHitZeroAllocs pins the satellite property: a warm cache
// hit — key build, shard probe, LRU promotion, and for the Answer form the
// stored wire bytes — allocates nothing at all.
func TestSuggestCacheHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	rec := testRecommender(t)
	sc := NewSuggestCache(128)
	ctx := core.InternContext(rec.Dict(), []string{"o2", "o2 mobile"})
	for i := 0; i < 3; i++ { // warm: first sight, stored, first hit's wire form + pool
		sc.AnswerSlot(0, 1, rec, ctx, 5, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if got, hit := sc.RecommendSlotHit(0, 1, rec, ctx, 5); !hit || len(got) == 0 {
			t.Fatal("hit returned nothing")
		}
	})
	if allocs > 0.05 {
		t.Fatalf("cache hit allocates %.2f times per op, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(200, func() {
		if a, hit := sc.AnswerSlot(0, 1, rec, ctx, 5, nil); !hit || a.wire == nil {
			t.Fatal("Answer hit returned no wire form")
		}
	})
	if allocs > 0.05 {
		t.Fatalf("Answer cache hit allocates %.2f times per op, want 0", allocs)
	}
}

// missCycle returns a cycle of distinct covered contexts, many per shard, all
// of one length: looked up in turn through a cache of one entry (and so one
// ghost hash) per shard, every one misses and none is ever admitted.
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

// TestSuggestCacheMissAllocs pins the two miss paths. A first sight —
// descent, ghost push, no insert — answered into the caller's buffer
// allocates nothing. A second sight through a full cache — descent, insert,
// eviction — allocates once: the suggestion slice the entry retains. The
// entry's node (links, key bytes and value) is the evicted entry's,
// recycled, and the key is hashed and compared as bytes, never made a
// string. A second allocation would be a key or node per insert, or a wire
// form built on insert. (The slice itself cannot be recycled with the node:
// see the package comment.)
func TestSuggestCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	rec := testRecommender(t)
	sc := NewSuggestCache(shardCount) // one entry per shard, one ghost hash per shard
	ctxs := missCycle(rec)
	scratch := make([]core.Suggestion, 0, 8)
	next := 0
	firstSight := func() {
		if a, hit := sc.AnswerSlot(0, 1, rec, ctxs[next%len(ctxs)], 5, &scratch); hit || len(a.Recs) == 0 {
			t.Fatalf("the distinct cycle hit (%v) or went unanswered", hit)
		}
		next++
	}
	for i := 0; i < len(ctxs); i++ { // warm the pools and the ghosts
		firstSight()
	}
	before := sc.Stats()
	allocs := testing.AllocsPerRun(len(ctxs), firstSight)
	after := sc.Stats()
	if runs := after.Misses - before.Misses; after.Refused-before.Refused != runs || after.Entries != 0 || after.Evictions != 0 {
		t.Fatalf("%d first sightings: %+v -> %+v, want every one refused and nothing stored", runs, before, after)
	}
	if allocs != 0 {
		t.Fatalf("a refused miss allocates %.2f times, want 0", allocs)
	}

	secondSight := func() {
		ctx := ctxs[next%len(ctxs)]
		sc.AnswerSlot(0, 1, rec, ctx, 5, &scratch) // first sight: into the ghost
		if _, hit := sc.AnswerSlot(0, 1, rec, ctx, 5, &scratch); hit {
			t.Fatal("the distinct cycle hit")
		}
		next++
	}
	for i := 0; i < len(ctxs); i++ { // fill every shard
		secondSight()
	}
	before = sc.Stats()
	allocs = testing.AllocsPerRun(len(ctxs), secondSight)
	after = sc.Stats()
	if runs := (after.Misses - before.Misses) / 2; after.Evictions-before.Evictions != runs || after.Refused-before.Refused != runs {
		t.Fatalf("%d second sightings: %+v -> %+v, want one refusal and one eviction each", runs, before, after)
	}
	if allocs != 1 {
		t.Fatalf("refused miss + stored miss (insert + evict) allocate %.2f times, want 1", allocs)
	}
}

// TestSuggestCacheBatchMissAllocs is the batch twin: a batch of first
// sightings answered into a buffer the caller lends allocates nothing — no
// key string, no context clone, no node, no bookkeeping slices, no result
// table, and the closure handed to PredictBatch stays on the stack now that
// no goroutine can capture it. Without a lent buffer every covered miss gets
// its own copy of its suggestions, one allocation each and nothing more.
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
	var scratch []core.Suggestion
	lent := &scratch
	next := 0
	lookup := func() {
		lo := next % len(ctxs)
		scratch = scratch[:0]
		sc.AnswerBatchSlot(0, 1, rec, ctxs[lo:lo+batch], ns, out, lent)
		next += batch
	}
	for i := 0; i < 2*len(ctxs)/batch; i++ {
		lookup()
	}
	for _, want := range []struct {
		name   string
		lent   *[]core.Suggestion
		allocs float64
	}{
		{"into a lent buffer", &scratch, 0},
		{"without a lent buffer", nil, batch},
	} {
		lent = want.lent
		lookup() // warm the pooled buffer
		before := sc.Stats()
		allocs := testing.AllocsPerRun(len(ctxs)/batch, lookup)
		after := sc.Stats()
		if after.Hits != before.Hits || after.Refused-before.Refused != after.Misses-before.Misses || after.Entries != 0 {
			t.Fatalf("%s: the batches did not miss and refuse throughout: %+v -> %+v", want.name, before, after)
		}
		for i, a := range out {
			if len(a.Recs) == 0 {
				t.Fatalf("%s: item %d of the cycle went unanswered", want.name, i)
			}
		}
		if allocs != want.allocs {
			t.Fatalf("a batch of %d refused misses %s allocates %.2f times, want %.0f", batch, want.name, allocs, want.allocs)
		}
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
	ctxs := make([]query.Seq, len(contexts))
	for i, context := range contexts {
		ctxs[i] = core.InternContext(rec.Dict(), context)
	}
	out := make([][]core.Suggestion, len(contexts))
	sc.RecommendBatchSlot(0, 1, rec, ctxs, ns, out)
	if st := sc.Stats(); st.Entries != 0 {
		t.Fatalf("a batch of first sightings stored %d entries", st.Entries)
	}
	sc.RecommendBatchSlot(0, 1, rec, ctxs, ns, out) // second sight: stored
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
	// The second batch populated the cache: single lookups must now hit.
	st := sc.Stats()
	recommend(sc, 1, rec, []string{"o2"}, 5)
	if got := sc.Stats().Hits; got != st.Hits+1 {
		t.Fatalf("single lookup after batch missed (hits %d -> %d)", st.Hits, got)
	}
	// And a third identical batch is all hits.
	out2 := make([][]core.Suggestion, len(contexts))
	before := sc.Stats().Misses
	sc.RecommendBatchSlot(0, 1, rec, ctxs, ns, out2)
	if got := sc.Stats().Misses; got != before {
		t.Fatalf("repeat batch missed (%d -> %d)", before, got)
	}
}
