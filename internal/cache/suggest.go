package cache

import (
	"bytes"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
)

// SuggestCache fronts core.Recommender suggestions with a sharded LRU keyed
// on the interned context IDs (not the raw strings), the requested
// suggestion count, a caller-supplied model generation, and a slot
// identifier. Keying on IDs means spelling-normalised duplicates ("O2
// Mobile" vs "o2 mobile") share one entry, and the generation keeps entries
// computed against a hot-swapped old model from ever answering for the new
// one.
//
// The slot dimension lets a multi-model registry (internal/fleet) front all
// of its models with one cache: every slot carries its own generation
// counter, entries from different slots can never collide, and — because
// sticky routing sends each context to one slot — LRU capacity is shared in
// proportion to actual per-model traffic instead of being statically split.
// A one-model registry serves slot 0.
//
// Two families of entry points share the entries. The Answer* forms serve
// the HTTP handlers: they return an Answer, which carries the entry's wire
// form once a hit has built it (see the package comment). The Recommend*
// forms return the suggestions alone and never build a wire form — the
// shadow scorer and the benchmark's probes have no use for one. Every entry
// point stores a miss only on second sight (see the package comment).
//
// Cached suggestion slices are shared between callers and must be treated
// as immutable.
type SuggestCache struct {
	lru *Cache[Answer]
	// bufs pools the per-request key scratch so the hot (hit) path
	// does not allocate.
	bufs sync.Pool
}

// Answer is one cached result: the ranked suggestions and, once a hit has
// built it, their encoded `"suggestions":[...]` response member. The zero
// Answer is the empty answer. Both forms are shared between callers and must
// be treated as immutable.
type Answer struct {
	// Recs holds the ranked suggestions, nil when the context is empty or
	// not covered by the model.
	Recs []core.Suggestion
	// wire is core.AppendSuggestionsJSON(nil, Recs), or nil while unfilled.
	wire []byte
}

// AppendSuggestionsJSON appends the answer's `"suggestions":[...]` member to
// dst: a copy of the stored wire form when the answer has one, a fresh
// core.AppendSuggestionsJSON of Recs otherwise (a miss). The bytes are the
// same either way.
func (a Answer) AppendSuggestionsJSON(dst []byte) []byte {
	if a.wire != nil {
		return append(dst, a.wire...)
	}
	return core.AppendSuggestionsJSON(dst, a.Recs)
}

// emptyWire is the wire form every empty or uncovered answer shares.
var emptyWire = core.AppendSuggestionsJSON(nil, nil)

type suggestBuf struct {
	key     []byte            // the request's key; for a batch, its misses' keys back to back
	wire    []byte            // encode scratch of a first hit; the entry keeps a copy
	answers []Answer          // RecommendBatchSlot's view of a batch before Recs are copied out
	recs    []core.Suggestion // a batch's suggestions when the caller lends no buffer

	// A batch's misses: what AppendBatchSuggestions is asked (missCtx, missN)
	// and, parallel to those, where each one's suggestions end (ends), where
	// its answer goes and whether it is stored (miss).
	missCtx []query.Seq
	missN   []int
	ends    []int
	miss    []batchMiss
}

// batchMiss is one missed item of a batch: its index in the batch, its key's
// hash, where its key ends in suggestBuf.key (it starts where the previous
// miss's ends) and the admission verdict its probe took.
type batchMiss struct {
	item   int
	keyEnd int
	hash   uint64
	admit  bool
}

// DefaultCapacity is the cache size used when callers pass a non-positive
// capacity.
const DefaultCapacity = 1 << 14

// NewSuggestCache returns a SuggestCache holding about capacity result
// entries (<= 0 selects DefaultCapacity).
func NewSuggestCache(capacity int) *SuggestCache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &SuggestCache{
		lru: New[Answer](capacity),
		bufs: sync.Pool{New: func() any {
			return &suggestBuf{key: make([]byte, 0, 64)}
		}},
	}
}

// RecommendSlot answers the interned context ctx with up to n suggestions
// from registry slot slot's model, whose generation gen (bumped on every
// hot reload) joins the slot ID in the cache key, so neither a stale model
// nor another slot can answer. A hit allocates nothing; a refused miss's
// slice is fresh.
func (sc *SuggestCache) RecommendSlot(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int) []core.Suggestion {
	out, _ := sc.RecommendSlotHit(slot, gen, rec, ctx, n)
	return out
}

// RecommendSlotHit is RecommendSlot plus a hit flag: whether the answer came
// from the cache.
func (sc *SuggestCache) RecommendSlotHit(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int) ([]core.Suggestion, bool) {
	a, hit := sc.answerSlot(slot, gen, rec, ctx, n, false, nil)
	return a.Recs, hit
}

// AnswerSlot is RecommendSlotHit for the HTTP handlers — the fast path, which
// interns once per request and reuses the IDs for both the cache key and the
// prediction. The hit flag lets the serving layer attribute the request's
// latency to the cache-lookup stage (hit) or the predict-descent stage
// (miss) without a second key probe. A hit returns the entry's wire form
// with the suggestions, building and storing it if this is the entry's first
// hit; a miss returns the suggestions alone. A refused miss appends them to
// (*scratch)[:0], a buffer the request holds, and leaves the grown slice
// there (a nil scratch gives it a fresh slice).
func (sc *SuggestCache) AnswerSlot(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int, scratch *[]core.Suggestion) (Answer, bool) {
	return sc.answerSlot(slot, gen, rec, ctx, n, true, scratch)
}

func (sc *SuggestCache) answerSlot(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int, wire bool, scratch *[]core.Suggestion) (Answer, bool) {
	if len(ctx) == 0 {
		return Answer{}, false
	}
	buf := sc.bufs.Get().(*suggestBuf)
	defer sc.putBuf(buf)
	return sc.answerKeyed(slot, gen, rec, buf, ctx, n, wire, scratch)
}

func (sc *SuggestCache) putBuf(buf *suggestBuf) {
	buf.key = buf.key[:0]
	buf.wire = buf.wire[:0]
	clear(buf.answers) // do not retain cached slices in the pool
	buf.answers = buf.answers[:0]
	clear(buf.recs) // nor a dictionary's strings
	buf.recs = buf.recs[:0]
	clear(buf.missCtx) // nor the caller's contexts
	buf.missCtx = buf.missCtx[:0]
	buf.missN = buf.missN[:0]
	buf.ends = buf.ends[:0]
	buf.miss = buf.miss[:0]
	sc.bufs.Put(buf)
}

// answerKeyed runs the keyed lookup-or-compute, reporting whether the
// answer came from the cache. The key is hashed once, for the probe and the
// insert both; an admitted miss's entry copies the key bytes into storage it
// owns, a refused miss is answered into scratch (see AnswerSlot). wire
// selects the Answer* behaviour (see lookup).
func (sc *SuggestCache) answerKeyed(slot uint32, gen uint64, rec core.Recommender, buf *suggestBuf, ctx query.Seq, n int, wire bool, scratch *[]core.Suggestion) (Answer, bool) {
	buf.key = appendSuggestKey(buf.key[:0], slot, gen, ctx, n)
	h := hashKey(buf.key)
	a, hit, admit := sc.lookup(buf, h, buf.key, wire)
	switch {
	case hit:
		return a, true
	case admit:
		a = Answer{Recs: core.RecommendIDs(rec, ctx, n)}
		sc.lru.put(h, buf.key, a)
	case scratch != nil:
		*scratch = rec.AppendSuggestions((*scratch)[:0], ctx, n)
		if len(*scratch) > 0 {
			a = Answer{Recs: *scratch}
		}
	default:
		a = Answer{Recs: core.RecommendIDs(rec, ctx, n)}
	}
	return a, false
}

// lookup probes the LRU for key, whose hash is h, and on a miss reports the
// admission verdict; with wire set, a hit on an entry that has no wire form
// yet fills it.
func (sc *SuggestCache) lookup(buf *suggestBuf, h uint64, key []byte, wire bool) (a Answer, hit, admit bool) {
	a, hit, admit = sc.lru.get(h, key)
	if hit && wire && a.wire == nil {
		a = sc.fillWire(buf, h, key, a)
	}
	return a, hit, admit
}

// fillWire builds the wire form of a, the entry just found under key, and
// stores the pair back if the entry is still cached. The encode runs outside
// the shard lock, into pooled scratch; the entry keeps an exact-size copy.
// Racing first hits each store their own copy of the same bytes and the last
// one stays.
func (sc *SuggestCache) fillWire(buf *suggestBuf, h uint64, key []byte, a Answer) Answer {
	if len(a.Recs) == 0 {
		a.wire = emptyWire
	} else {
		buf.wire = core.AppendSuggestionsJSON(buf.wire[:0], a.Recs)
		a.wire = bytes.Clone(buf.wire)
	}
	sc.lru.replace(h, key, a)
	return a
}

// RecommendBatchSlot answers every (ctxs[i], ns[i]) pair into out[i] (which
// must be len(ctxs) long) inside one registry slot, for contexts that are
// already interned. Hits come from the shared LRU under the slot's key
// space; all misses are scored in one rec.AppendBatchSuggestions call and
// the admitted ones inserted. Every miss's slice is its own copy, so a
// covered miss allocates once. ctxs entries may live in recycled buffers:
// nothing here or behind core.Recommender keeps a context past the call.
func (sc *SuggestCache) RecommendBatchSlot(slot uint32, gen uint64, rec core.Recommender, ctxs []query.Seq, ns []int, out [][]core.Suggestion) {
	buf := sc.bufs.Get().(*suggestBuf)
	defer sc.putBuf(buf)
	buf.answers = append(buf.answers, make([]Answer, len(ctxs))...)
	sc.answerBatch(slot, gen, rec, buf, ctxs, ns, buf.answers, false, nil)
	for i, a := range buf.answers {
		out[i] = a.Recs
	}
}

// AnswerBatchSlot is RecommendBatchSlot for the HTTP batch handlers — the
// batch path interns once against the router's base dictionary before
// routing each item to its arm. out[i] receives each
// answer; hits carry their wire form as in AnswerSlot. The misses'
// suggestions are appended to *scratch, a buffer the request holds —
// appended, not written over, so calls whose answers are all still in use
// can share it. A refused miss's Recs is a view of its run that a later
// append cannot overwrite, so a batch of refused misses allocates nothing;
// an admitted miss's entry keeps its own copy. A nil scratch gives every
// miss its own copy, as RecommendBatchSlot does.
func (sc *SuggestCache) AnswerBatchSlot(slot uint32, gen uint64, rec core.Recommender, ctxs []query.Seq, ns []int, out []Answer, scratch *[]core.Suggestion) {
	buf := sc.bufs.Get().(*suggestBuf)
	defer sc.putBuf(buf)
	sc.answerBatch(slot, gen, rec, buf, ctxs, ns, out, true, scratch)
}

// answerBatch is the batch twin of answerKeyed: out[i] is resolved from the
// cache where it can be, every miss goes through one
// rec.AppendBatchSuggestions call into scratch (the pooled buffer's own when
// nil), and the misses their probes admitted are inserted. The misses' keys,
// hashes and contexts wait in the pooled buffer meanwhile, so a miss costs
// the batch no allocation beyond the copy of its suggestions that an entry,
// or a caller without a scratch, keeps.
func (sc *SuggestCache) answerBatch(slot uint32, gen uint64, rec core.Recommender, buf *suggestBuf, ctxs []query.Seq, ns []int, out []Answer, wire bool, scratch *[]core.Suggestion) {
	buf.key = buf.key[:0]
	for i, ctx := range ctxs {
		out[i] = Answer{}
		if len(ctx) == 0 {
			continue
		}
		start := len(buf.key)
		buf.key = appendSuggestKey(buf.key, slot, gen, ctx, ns[i])
		key := buf.key[start:]
		h := hashKey(key)
		a, hit, admit := sc.lookup(buf, h, key, wire)
		if hit {
			out[i] = a
			buf.key = buf.key[:start]
			continue
		}
		buf.missCtx = append(buf.missCtx, ctx)
		buf.missN = append(buf.missN, ns[i])
		buf.miss = append(buf.miss, batchMiss{item: i, keyEnd: len(buf.key), hash: h, admit: admit})
	}
	if len(buf.miss) == 0 {
		return
	}
	recs := &buf.recs
	if scratch != nil {
		recs = scratch
	}
	lo := len(*recs)
	*recs, buf.ends = rec.AppendBatchSuggestions(*recs, buf.ends[:0], buf.missCtx, buf.missN)
	keyStart := 0
	for j, m := range buf.miss {
		hi := buf.ends[j]
		var a Answer
		if hi > lo {
			a.Recs = (*recs)[lo:hi:hi]
			if m.admit || scratch == nil {
				a.Recs = slices.Clone(a.Recs)
			}
		}
		out[m.item] = a
		if m.admit {
			sc.lru.put(m.hash, buf.key[keyStart:m.keyEnd], a)
		}
		keyStart, lo = m.keyEnd, hi
	}
}

// appendSuggestKey encodes (slot, gen, n, ctx) into dst: 4 bytes of slot ID,
// 8 bytes of generation, 4 bytes of n, then 4 bytes per context ID (the
// Seq.Key layout). Every entry point shares this one layout, so keys from
// different (slot, generation) pairs can never alias.
func appendSuggestKey(dst []byte, slot uint32, gen uint64, ctx query.Seq, n int) []byte {
	dst = append(dst,
		byte(slot>>24), byte(slot>>16), byte(slot>>8), byte(slot),
		byte(gen>>56), byte(gen>>48), byte(gen>>40), byte(gen>>32),
		byte(gen>>24), byte(gen>>16), byte(gen>>8), byte(gen),
		byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	for _, q := range ctx {
		dst = append(dst, byte(q>>24), byte(q>>16), byte(q>>8), byte(q))
	}
	return dst
}

// Purge drops all entries (used after model hot reload to release the old
// generation's memory; correctness does not depend on it).
func (sc *SuggestCache) Purge() { sc.lru.Purge() }

// Stats snapshots the hit, miss, eviction and refusal counters.
func (sc *SuggestCache) Stats() Stats { return sc.lru.Stats() }
