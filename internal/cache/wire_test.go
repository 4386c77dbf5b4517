package cache

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// listRec is a Recommender that answers context {i} with a fixed list — the
// way to push arbitrary suggestion lists through the cache. Only the two
// methods a miss reaches are implemented.
type listRec struct {
	core.Recommender
	lists [][]core.Suggestion
}

func (r listRec) AppendSuggestions(dst []core.Suggestion, ctx query.Seq, n int) []core.Suggestion {
	return append(dst, r.lists[ctx[0]]...)
}

func (r listRec) RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]core.Suggestion {
	out := make([][]core.Suggestion, len(ctxs))
	for i, ctx := range ctxs {
		out[i] = core.RecommendIDs(r, ctx, ns[i])
	}
	return out
}

// randomLists draws suggestion lists that stress the encoder: quotes,
// backslashes, control bytes, non-ASCII, scores below 1e-6 and at or above
// 1e21 (encoding/json's 'e'-format ranges), and empty lists.
func randomLists(rng *rand.Rand, n int) [][]core.Suggestion {
	nasty := []string{
		"", "plain", `quote " inside`, `back\slash`, "tab\there", "new\nline",
		"control\x01char", "nul\x00byte", "unicode héllo 日本語", "<b>&amp;</b>", "ends with \\",
	}
	score := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return rng.Float64()
		case 1:
			return rng.Float64() * 1e-9
		case 2:
			return (1 + rng.Float64()) * 1e21
		case 3:
			return math.Float64frombits(rng.Uint64() & 0x7fefffffffffffff)
		default:
			return 0
		}
	}
	lists := make([][]core.Suggestion, n)
	for i := range lists {
		if i%8 == 0 {
			continue // an uncovered context: no suggestions
		}
		lists[i] = make([]core.Suggestion, 1+rng.Intn(6))
		for j := range lists[i] {
			lists[i][j] = core.Suggestion{Query: nasty[rng.Intn(len(nasty))], Score: score()}
		}
	}
	return lists
}

// decodeMember parses a `"suggestions":[...]` member with encoding/json.
func decodeMember(t *testing.T, member []byte) []core.Suggestion {
	t.Helper()
	var obj struct {
		Suggestions []struct {
			Query string  `json:"query"`
			Score float64 `json:"score"`
		} `json:"suggestions"`
	}
	if err := json.Unmarshal([]byte("{"+string(member)+"}"), &obj); err != nil {
		t.Fatalf("member %s: %v", member, err)
	}
	var out []core.Suggestion
	for _, s := range obj.Suggestions {
		out = append(out, core.Suggestion(s))
	}
	return out
}

// TestWireFormMatchesEncoder is the cache's central invariant: whatever the
// suggestions, the bytes an entry stores are exactly the core encoder's
// output for the suggestions it stores, they parse (with encoding/json) back
// to those suggestions, and a miss, the first hit and a later hit all append
// the same bytes — through the single and the batch entry points alike.
func TestWireFormMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rec := listRec{lists: randomLists(rng, 400)}
	single, batch := NewSuggestCache(1024), NewSuggestCache(1024)

	ctxs := make([]query.Seq, len(rec.lists))
	ns := make([]int, len(rec.lists))
	for i := range ctxs {
		ctxs[i], ns[i] = query.Seq{query.ID(i)}, 10
	}
	batchRounds := make([][]Answer, 3) // miss, first hit, second hit
	for r := range batchRounds {
		batchRounds[r] = make([]Answer, len(ctxs))
		batch.AnswerBatchSlot(0, 1, rec, ctxs, ns, batchRounds[r])
	}

	for i, list := range rec.lists {
		want := core.AppendSuggestionsJSON(nil, list)
		if got := decodeMember(t, want); len(got) != len(list) {
			t.Fatalf("list %d: encoding/json reads %d suggestions out of %s, want %d", i, len(got), want, len(list))
		} else {
			for j := range got {
				if got[j] != list[j] {
					t.Fatalf("list %d: encoding/json reads %+v out of %s, want %+v", i, got[j], want, list[j])
				}
			}
		}

		miss, wasHit := single.AnswerSlot(0, 1, rec, ctxs[i], 10)
		if wasHit || miss.wire != nil {
			t.Fatalf("list %d: first lookup hit=%v wire=%q, want a miss without a wire form", i, wasHit, miss.wire)
		}
		first, hit1 := single.AnswerSlot(0, 1, rec, ctxs[i], 10)
		second, hit2 := single.AnswerSlot(0, 1, rec, ctxs[i], 10)
		if !hit1 || !hit2 {
			t.Fatalf("list %d: repeat lookups missed", i)
		}
		rounds := map[string]Answer{
			"miss": miss, "first hit": first, "second hit": second,
			"batch miss": batchRounds[0][i], "batch first hit": batchRounds[1][i], "batch second hit": batchRounds[2][i],
		}
		for name, a := range rounds {
			if got := a.AppendSuggestionsJSON([]byte("x")); !bytes.Equal(got[1:], want) || got[0] != 'x' {
				t.Fatalf("list %d, %s: appended %s, core encoder %s", i, name, got, want)
			}
		}
		for _, name := range []string{"first hit", "second hit", "batch first hit", "batch second hit"} {
			if a := rounds[name]; !bytes.Equal(a.wire, want) {
				t.Fatalf("list %d, %s: stored wire form %q, core encoder %s", i, name, a.wire, want)
			}
		}
		if len(first.wire) > 0 && &first.wire[0] != &second.wire[0] {
			t.Fatalf("list %d: the second hit did not serve the bytes the first hit stored", i)
		}
		if len(list) == 0 && &second.wire[0] != &emptyWire[0] {
			t.Fatalf("list %d: an empty answer does not share the static wire form", i)
		}
		// The Recommend* forms share the entry and never need the wire form.
		if recs := single.RecommendSlot(0, 1, rec, ctxs[i], 10); len(recs) != len(list) {
			t.Fatalf("list %d: RecommendSlot returned %d suggestions, want %d", i, len(recs), len(list))
		}
	}
}

// TestRecommendFormsNeverBuildWire: hits through the Recommend* entry points
// (the shadow scorer's and the benchmark probes') leave the entry without a
// wire form.
func TestRecommendFormsNeverBuildWire(t *testing.T) {
	rec := testRecommender(t)
	sc := NewSuggestCache(128)
	ctx := core.InternContext(rec.Dict(), []string{"o2"})
	out := make([][]core.Suggestion, 1)
	for i := 0; i < 3; i++ {
		sc.RecommendSlotHit(0, 1, rec, ctx, 5)
		sc.RecommendBatchSlot(0, 1, rec, []query.Seq{ctx}, []int{5}, out)
		sc.Recommend(1, rec, []string{"o2"}, 5)
	}
	key := appendSuggestKey(nil, 0, 1, ctx, 5)
	if a, ok := sc.lru.GetBytes(key); !ok || a.wire != nil || len(a.Recs) == 0 {
		t.Fatalf("entry after Recommend* hits: present=%v wire=%q recs=%d", ok, a.wire, len(a.Recs))
	}
}

// TestWireFormKeyedByGeneration: a new generation (what Swap and /v1/reload
// bump) can never be answered with bytes built for the old one, with or
// without the purge that normally accompanies the bump.
func TestWireFormKeyedByGeneration(t *testing.T) {
	oldModel := listRec{lists: [][]core.Suggestion{{{Query: "old answer", Score: 0.5}}}}
	newModel := listRec{lists: [][]core.Suggestion{{{Query: "new answer", Score: 0.25}}}}
	ctx := query.Seq{0}
	for _, purge := range []bool{false, true} {
		sc := NewSuggestCache(64)
		for i := 0; i < 3; i++ { // miss, first hit (fills the wire form), hit
			sc.AnswerSlot(0, 1, oldModel, ctx, 5)
		}
		if purge {
			sc.Purge()
		}
		want := core.AppendSuggestionsJSON(nil, newModel.lists[0])
		for i := 0; i < 3; i++ {
			a, _ := sc.AnswerSlot(0, 2, newModel, ctx, 5)
			if got := a.AppendSuggestionsJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("purge=%v lookup %d under generation 2 served %s, want %s", purge, i, got, want)
			}
		}
	}
}

// TestWireFillDoesNotResurrectEvicted: a first hit that finds its entry gone
// by the time it stores the wire form — evicted by capacity pressure or
// purged by a reload — still serves the right bytes, and leaves the entry
// gone.
func TestWireFillDoesNotResurrectEvicted(t *testing.T) {
	rec := testRecommender(t)
	ctx := core.InternContext(rec.Dict(), []string{"o2"})
	for _, how := range []string{"evicted", "purged"} {
		sc := NewSuggestCache(shardCount) // one entry per shard
		sc.AnswerSlot(0, 1, rec, ctx, 5)  // miss: inserted

		// The first hit, taken apart: lookup ...
		buf := sc.bufs.Get().(*suggestBuf)
		buf.key = appendSuggestKey(buf.key[:0], 0, 1, ctx, 5)
		a, ok := sc.lru.GetBytes(buf.key)
		if !ok || a.wire != nil {
			t.Fatalf("%s: lookup hit=%v wire=%q", how, ok, a.wire)
		}
		// ... the entry goes away ...
		h := hashKey(buf.key)
		shard := sc.lru.shard(h)
		switch how {
		case "evicted":
			for n := 1; ; n++ { // another slot's keys, until one lands in the same one-entry shard
				other := appendSuggestKey(nil, 7, 1, ctx, n)
				sc.lru.PutBytes(other, Answer{})
				if sc.lru.shard(hashKey(other)) == shard {
					break
				}
			}
		case "purged":
			sc.Purge()
		}
		if shard.find(h, buf.key) != nil {
			t.Fatalf("%s: entry still cached", how)
		}
		entries := sc.Stats().Entries
		// ... fill.
		filled := sc.fillWire(buf, h, buf.key, a)
		if want := core.AppendSuggestionsJSON(nil, a.Recs); !bytes.Equal(filled.wire, want) {
			t.Fatalf("%s: fill served %q, want %s", how, filled.wire, want)
		}
		if shard.find(h, buf.key) != nil || sc.Stats().Entries != entries {
			t.Fatalf("%s: the fill resurrected the entry (entries %d -> %d)", how, entries, sc.Stats().Entries)
		}
		sc.putBuf(buf)
	}
}

// TestReplaceBytes pins the generic primitive under the fill: present keys
// take the new value without moving in the recency order or the counters,
// absent keys are not inserted.
func TestReplaceBytes(t *testing.T) {
	c := New[int](shardCount * 2) // two per shard
	keys := sameShardKeys(c, "r", 3)
	c.PutBytes(keys[0], 0)
	c.PutBytes(keys[1], 1)
	before := c.Stats()
	if !c.ReplaceBytes(keys[0], 10) {
		t.Fatal("ReplaceBytes missed a cached key")
	}
	if c.ReplaceBytes([]byte("absent"), 1) || c.ReplaceBytes(keys[2], 2) {
		t.Fatal("ReplaceBytes reported an absent key present")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("ReplaceBytes moved the counters or the entry count: %+v -> %+v", before, after)
	}
	c.PutBytes(keys[2], 2) // evicts the least recently used: still keys[0], replaced but not promoted
	if _, ok := c.GetBytes(keys[0]); ok {
		t.Fatal("ReplaceBytes promoted the entry")
	}
	if v, ok := c.GetBytes(keys[1]); !ok || v != 1 {
		t.Fatalf("GetBytes(%q) = %v, %v", keys[1], v, ok)
	}
}

// TestWireFirstHitRace: many goroutines take the first hit of the same
// entries at once (each encodes and stores its own copy); every one of them
// serves the encoder's bytes. Meaningful under -race.
func TestWireFirstHitRace(t *testing.T) {
	rec := listRec{lists: randomLists(rand.New(rand.NewSource(23)), 64)}
	sc := NewSuggestCache(256)
	want := make([][]byte, len(rec.lists))
	for i, list := range rec.lists {
		sc.AnswerSlot(0, 1, rec, query.Seq{query.ID(i)}, 10) // miss: insert without wire
		want[i] = core.AppendSuggestionsJSON(nil, list)
	}
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			var dst []byte
			batchOut := make([]Answer, 1)
			for i := range rec.lists {
				ctx := query.Seq{query.ID(i)}
				var a Answer
				if (w+i)%2 == 0 {
					a, _ = sc.AnswerSlot(0, 1, rec, ctx, 10)
				} else {
					sc.AnswerBatchSlot(0, 1, rec, []query.Seq{ctx}, []int{10}, batchOut)
					a = batchOut[0]
				}
				if dst = a.AppendSuggestionsJSON(dst[:0]); !bytes.Equal(dst, want[i]) {
					t.Errorf("worker %d, entry %d: served %s, want %s", w, i, dst, want[i])
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if st := sc.Stats(); st.Misses != uint64(len(rec.lists)) {
		t.Fatalf("racing first hits missed: %+v", st)
	}
}
