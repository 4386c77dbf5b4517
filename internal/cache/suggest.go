package cache

import (
	"bytes"
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
// Single-model callers use the slot-less methods, which serve slot 0.
//
// Two families of entry points share the entries. The Answer* forms serve
// the HTTP handlers: they return an Answer, which carries the entry's wire
// form once a hit has built it (see the package comment). The Recommend*
// forms return the suggestions alone and never build a wire form — the
// shadow scorer and the benchmark's probes have no use for one.
//
// Cached suggestion slices are shared between callers and must be treated
// as immutable.
type SuggestCache struct {
	lru *Cache[Answer]
	// bufs pools the per-request context/key scratch so the hot (hit) path
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
	ctx     query.Seq
	key     []byte   // the request's key; for a batch, its misses' keys back to back
	wire    []byte   // encode scratch of a first hit; the entry keeps a copy
	answers []Answer // RecommendBatch*'s view of a batch before Recs are copied out

	// A batch's misses: what RecommendBatchIDs is asked (missCtx, missN) and,
	// parallel to those, where each answer goes.
	missCtx []query.Seq
	missN   []int
	miss    []batchMiss
}

// batchMiss is one missed item of a batch: its index in the batch, its key's
// hash, and where its key ends in suggestBuf.key (it starts where the
// previous miss's ends).
type batchMiss struct {
	item   int
	keyEnd int
	hash   uint64
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
			return &suggestBuf{ctx: make(query.Seq, 0, 16), key: make([]byte, 0, 64)}
		}},
	}
}

// Recommend answers context with up to n suggestions, consulting the cache
// before delegating to core.RecommendIDs. gen is the serving layer's model
// generation: bump it on every hot reload so stale entries can never match.
// Hits are allocation-free: the key is built in a pooled buffer, which is
// what the cache probes with.
func (sc *SuggestCache) Recommend(gen uint64, rec core.Recommender, context []string, n int) []core.Suggestion {
	buf := sc.bufs.Get().(*suggestBuf)
	defer sc.putBuf(buf)
	buf.ctx = core.AppendContext(rec.Dict(), buf.ctx[:0], context)
	if len(buf.ctx) == 0 {
		return nil
	}
	a, _ := sc.answerKeyed(0, gen, rec, buf, buf.ctx, n, false)
	return a.Recs
}

// RecommendInterned is Recommend for an already-interned context.
func (sc *SuggestCache) RecommendInterned(gen uint64, rec core.Recommender, ctx query.Seq, n int) []core.Suggestion {
	out, _ := sc.RecommendSlotHit(0, gen, rec, ctx, n)
	return out
}

// RecommendSlot is RecommendInterned inside a named registry slot: the slot
// ID joins the cache key, so a fleet of models shares one LRU without any
// cross-model key collisions. (gen is the slot's own generation counter.)
func (sc *SuggestCache) RecommendSlot(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int) []core.Suggestion {
	out, _ := sc.RecommendSlotHit(slot, gen, rec, ctx, n)
	return out
}

// RecommendSlotHit is RecommendSlot plus a hit flag: whether the answer came
// from the cache.
func (sc *SuggestCache) RecommendSlotHit(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int) ([]core.Suggestion, bool) {
	a, hit := sc.answerSlot(slot, gen, rec, ctx, n, false)
	return a.Recs, hit
}

// AnswerSlot is RecommendSlotHit for the HTTP handlers — the fast path, which
// interns once per request and reuses the IDs for both the cache key and the
// prediction. The hit flag lets the serving layer attribute the request's
// latency to the cache-lookup stage (hit) or the predict-descent stage
// (miss) without a second key probe. A hit returns the entry's wire form
// with the suggestions, building and storing it if this is the entry's first
// hit; a miss returns the suggestions alone.
func (sc *SuggestCache) AnswerSlot(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int) (Answer, bool) {
	return sc.answerSlot(slot, gen, rec, ctx, n, true)
}

func (sc *SuggestCache) answerSlot(slot uint32, gen uint64, rec core.Recommender, ctx query.Seq, n int, wire bool) (Answer, bool) {
	if len(ctx) == 0 {
		return Answer{}, false
	}
	buf := sc.bufs.Get().(*suggestBuf)
	defer sc.putBuf(buf)
	return sc.answerKeyed(slot, gen, rec, buf, ctx, n, wire)
}

func (sc *SuggestCache) putBuf(buf *suggestBuf) {
	buf.ctx = buf.ctx[:0]
	buf.key = buf.key[:0]
	buf.wire = buf.wire[:0]
	clear(buf.answers) // do not retain cached slices in the pool
	buf.answers = buf.answers[:0]
	clear(buf.missCtx) // nor the caller's contexts
	buf.missCtx = buf.missCtx[:0]
	buf.missN = buf.missN[:0]
	buf.miss = buf.miss[:0]
	sc.bufs.Put(buf)
}

// answerKeyed runs the keyed lookup-or-compute, reporting whether the
// answer came from the cache. The key is hashed once, for the probe and the
// insert both; the entry copies the key bytes into storage it owns. wire
// selects the Answer* behaviour (see lookup).
func (sc *SuggestCache) answerKeyed(slot uint32, gen uint64, rec core.Recommender, buf *suggestBuf, ctx query.Seq, n int, wire bool) (Answer, bool) {
	buf.key = appendSuggestKey(buf.key[:0], slot, gen, ctx, n)
	h := hashKey(buf.key)
	if a, ok := sc.lookup(buf, h, buf.key, wire); ok {
		return a, true
	}
	a := Answer{Recs: core.RecommendIDs(rec, ctx, n)}
	sc.lru.put(h, buf.key, a)
	return a, false
}

// lookup probes the LRU for key, whose hash is h; with wire set, a hit on an
// entry that has no wire form yet fills it.
func (sc *SuggestCache) lookup(buf *suggestBuf, h uint64, key []byte, wire bool) (Answer, bool) {
	a, ok := sc.lru.get(h, key)
	if ok && wire && a.wire == nil {
		a = sc.fillWire(buf, h, key, a)
	}
	return a, ok
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

// RecommendBatch answers every (contexts[i], ns[i]) pair into out[i] (which
// must be len(contexts) long). Hits and empty contexts are resolved from the
// cache exactly like Recommend; all misses are then scored in one
// core.RecommendBatchIDs call and inserted.
func (sc *SuggestCache) RecommendBatch(gen uint64, rec core.Recommender, contexts [][]string, ns []int, out [][]core.Suggestion) {
	var ids query.Seq
	off := make([]int, 1, len(contexts)+1)
	for _, context := range contexts {
		ids = core.AppendContext(rec.Dict(), ids, context)
		off = append(off, len(ids))
	}
	ctxs := make([]query.Seq, len(contexts))
	for i := range ctxs {
		ctxs[i] = ids[off[i]:off[i+1]]
	}
	sc.RecommendBatchSlot(0, gen, rec, ctxs, ns, out)
}

// RecommendBatchSlot answers every (ctxs[i], ns[i]) pair into out[i] (which
// must be len(ctxs) long) inside one registry slot, for contexts that are
// already interned. Hits come from the shared LRU under the slot's key
// space; all misses are scored in one rec.RecommendBatchIDs call and
// inserted. ctxs entries may live in recycled buffers: nothing here or
// behind core.Recommender keeps a context past the call.
func (sc *SuggestCache) RecommendBatchSlot(slot uint32, gen uint64, rec core.Recommender, ctxs []query.Seq, ns []int, out [][]core.Suggestion) {
	buf := sc.bufs.Get().(*suggestBuf)
	defer sc.putBuf(buf)
	buf.answers = append(buf.answers, make([]Answer, len(ctxs))...)
	sc.answerBatch(slot, gen, rec, buf, ctxs, ns, buf.answers, false)
	for i, a := range buf.answers {
		out[i] = a.Recs
	}
}

// AnswerBatchSlot is RecommendBatchSlot for the HTTP batch handlers — in
// fleet mode the batch path interns once with the router's shared base
// dictionary before routing each item to its arm. out[i] receives each
// answer; hits carry their wire form as in AnswerSlot.
func (sc *SuggestCache) AnswerBatchSlot(slot uint32, gen uint64, rec core.Recommender, ctxs []query.Seq, ns []int, out []Answer) {
	buf := sc.bufs.Get().(*suggestBuf)
	defer sc.putBuf(buf)
	sc.answerBatch(slot, gen, rec, buf, ctxs, ns, out, true)
}

// answerBatch is the batch twin of answerKeyed: out[i] is resolved from the
// cache where it can be, and every miss goes through one
// rec.RecommendBatchIDs call and is inserted. The misses' keys, hashes and
// contexts wait in the pooled buffer meanwhile, so a miss costs the batch no
// allocation beyond its suggestion slice.
func (sc *SuggestCache) answerBatch(slot uint32, gen uint64, rec core.Recommender, buf *suggestBuf, ctxs []query.Seq, ns []int, out []Answer, wire bool) {
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
		if a, ok := sc.lookup(buf, h, key, wire); ok {
			out[i] = a
			buf.key = buf.key[:start]
			continue
		}
		buf.missCtx = append(buf.missCtx, ctx)
		buf.missN = append(buf.missN, ns[i])
		buf.miss = append(buf.miss, batchMiss{item: i, keyEnd: len(buf.key), hash: h})
	}
	if len(buf.miss) == 0 {
		return
	}
	res := rec.RecommendBatchIDs(buf.missCtx, buf.missN)
	start := 0
	for j, m := range buf.miss {
		out[m.item] = Answer{Recs: res[j]}
		sc.lru.put(m.hash, buf.key[start:m.keyEnd], out[m.item])
		start = m.keyEnd
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

// Stats snapshots hit/miss/eviction counters.
func (sc *SuggestCache) Stats() Stats { return sc.lru.Stats() }
