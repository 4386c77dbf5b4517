package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jsonspan"
	"repro/internal/obs"
	"repro/internal/query"
)

// POST /suggest/batch without encoding/json on the hot path: the body is
// read into a pooled buffer and walked once by jsonspan.AppendBatch — the
// request grammar's one walker, which the shard router consumes too — and each
// item's context strings are unescaped into pooled flat storage and interned
// byte-wise — no Go string is ever materialised for a context. The
// response echoes each item's context array span verbatim from the request
// body (zero-copy) around the pooled append-style suggestion encoder. The
// shard fan-out drives 64-item batches through this path per sub-batch, so
// its allocation discipline is what BenchmarkShardFanout64 gates.

// batchScratch pools every per-batch buffer of suggestBatch.
type batchScratch struct {
	body  []byte
	items []jsonspan.Item // the walked items: context span for the echo, tokens, n
	toks  [][2]int        // the items' context strings, as spans of body
	flat  []byte          // decoded context tokens, back to back
	raw   [][]byte        // views into flat, one per token
	ids   query.Seq       // interned IDs, back to back
	idOff []int32         // per-item offsets into ids (len(items)+1)
	ctxs  []query.Seq
	ns    []int
	out   []cache.Answer
	resp  []byte
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		body: make([]byte, 0, 4096),
		flat: make([]byte, 0, 1024),
		resp: make([]byte, 0, 4096),
	}
}}

func putBatchScratch(bb *batchScratch) {
	clear(bb.raw) // do not retain body-derived views in the pool
	clear(bb.out)
	clear(bb.ctxs)
	bb.body = bb.body[:0]
	bb.items = bb.items[:0]
	bb.toks = bb.toks[:0]
	bb.flat = bb.flat[:0]
	bb.raw = bb.raw[:0]
	bb.ids = bb.ids[:0]
	bb.idOff = bb.idOff[:0]
	bb.ctxs = bb.ctxs[:0]
	bb.ns = bb.ns[:0]
	bb.out = bb.out[:0]
	bb.resp = bb.resp[:0]
	batchScratchPool.Put(bb)
}

// suggestBatch scores a whole batch through one compiled.PredictBatch call
// per arm (cache misses only; hits come straight from the LRU) and
// encodes the response with the pooled append encoder. See the file comment
// for the allocation discipline.
func (h *Handler) suggestBatch(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodPost) {
		return
	}
	bb := batchScratchPool.Get().(*batchScratch)
	defer putBatchScratch(bb)
	var err error
	if bb.body, err = fleet.AppendReadAll(bb.body, http.MaxBytesReader(w, r.Body, 1<<22)); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	if bb.items, bb.toks, err = jsonspan.AppendBatch(bb.items, bb.toks, bb.body); err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if len(bb.items) == 0 {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "empty batch: requests must contain at least one context")
		return
	}
	if len(bb.items) > h.opts.MaxBatch {
		obs.WriteError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d exceeds limit %d", len(bb.items), h.opts.MaxBatch))
		return
	}
	for i := range bb.items {
		item := &bb.items[i]
		if item.TokHi == item.TokLo {
			obs.WriteError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("requests[%d]: empty context", i))
			return
		}
		if item.N < 0 || item.N > h.opts.MaxN {
			obs.WriteError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("requests[%d]: n must be in [1,%d] (or omitted)", i, h.opts.MaxN))
			return
		}
		n := item.N
		if n == 0 {
			n = h.opts.DefaultN
		}
		bb.ns = append(bb.ns, n)
	}
	// Unescape every context string into flat. A view cut before flat grows
	// keeps the array it was cut from, whose bytes are final.
	for _, sp := range bb.toks {
		start := len(bb.flat)
		bb.flat = jsonspan.AppendUnescaped(bb.flat, bb.body[sp[0]:sp[1]])
		bb.raw = append(bb.raw, bb.flat[start:len(bb.flat):len(bb.flat)])
	}
	// Intern every context against the serving dictionary (the router's base
	// dictionary in fleet mode), back to back; views follow once ids is
	// stable.
	st := h.state.Load()
	bb.idOff = append(bb.idOff, 0)
	for i := range bb.items {
		item := &bb.items[i]
		toks := bb.raw[item.TokLo:item.TokHi]
		if h.fleet != nil {
			bb.ids = h.fleet.AppendContextBytes(bb.ids, toks)
		} else {
			bb.ids = core.AppendContextBytes(st.rec.Dict(), bb.ids, toks)
		}
		bb.idOff = append(bb.idOff, int32(len(bb.ids)))
	}
	for i := range bb.items {
		bb.ctxs = append(bb.ctxs, bb.ids[bb.idOff[i]:bb.idOff[i+1]])
		bb.out = append(bb.out, cache.Answer{})
	}
	tr := traceOf(w)
	batchStart := tr.Elapsed()
	if h.fleet != nil {
		h.recommendBatchFleet(bb)
	} else {
		h.cache.AnswerBatchSlot(0, st.gen, st.rec, bb.ctxs, bb.ns, bb.out)
	}
	elapsed := (tr.Elapsed() - batchStart).Microseconds()
	recordStage(tr, h.histBatchDescent, stageBatch, batchStart, elapsed, "ok")
	perCtx := elapsed / int64(len(bb.items))
	h.m.batches.Add(1)
	h.m.batchContexts.Add(uint64(len(bb.items)))
	if fleet.WantsNDJSONStream(r) {
		// NDJSON mode: one {"index":N,"result":{...}} line per item, the
		// item object byte-identical to its buffered counterpart. A single
		// handler scores the whole batch in one pass, so the lines
		// land together; the incremental flushing happens a layer up, where
		// the shard router emits each sub-batch as it completes.
		bb.resp = bb.resp[:0]
		for i := range bb.out {
			bb.resp = append(bb.resp, `{"index":`...)
			bb.resp = strconv.AppendInt(bb.resp, int64(i), 10)
			bb.resp = append(bb.resp, `,"result":`...)
			bb.resp = bb.appendBatchItem(bb.resp, i, perCtx)
			bb.resp = append(bb.resp, "}\n"...)
		}
		w.Header()["Content-Type"] = fleet.NDJSONContentType
		w.Write(bb.resp)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		return
	}
	bb.resp = append(bb.resp[:0], `{"results":[`...)
	for i := range bb.out {
		if i > 0 {
			bb.resp = append(bb.resp, ',')
		}
		bb.resp = bb.appendBatchItem(bb.resp, i, perCtx)
	}
	bb.resp = append(bb.resp, `],"took_us":`...)
	bb.resp = strconv.AppendInt(bb.resp, elapsed, 10)
	bb.resp = append(bb.resp, '}')
	setJSONContentType(w)
	w.Write(bb.resp)
}

// appendBatchItem encodes one batch result object — the context echoed from
// the request body, the answer's suggestions member (the cache's stored
// bytes on a hit) and the per-context latency — shared by the buffered array
// and the NDJSON lines so the two response modes carry identical item bytes.
// The echo is the body's own bytes, unless the array was laid out over
// several lines: an item must stay one line (an NDJSON record, and what a
// router splits a shard's answer by), so then the whitespace between its
// tokens is dropped.
func (bb *batchScratch) appendBatchItem(dst []byte, i int, perCtx int64) []byte {
	dst = append(dst, `{"context":`...)
	sp := bb.items[i].Context
	if ctx := bb.body[sp[0]:sp[1]]; bytes.IndexByte(ctx, '\n') < 0 && bytes.IndexByte(ctx, '\r') < 0 {
		dst = append(dst, ctx...)
	} else {
		dst = appendCompactContext(dst, ctx)
	}
	dst = append(dst, ',')
	dst = bb.out[i].AppendSuggestionsJSON(dst)
	dst = append(dst, `,"took_us":`...)
	dst = strconv.AppendInt(dst, perCtx, 10)
	dst = append(dst, '}')
	return dst
}

// appendCompactContext appends a walked context array without the whitespace
// between its tokens. Its strings hold no raw CR or LF (jsonspan.AppendBatch
// refused them), so what is appended is one line.
func appendCompactContext(dst, ctx []byte) []byte {
	for i := 0; i < len(ctx); {
		switch c := ctx[i]; c {
		case ' ', '\t', '\n', '\r':
			i++
		case '"':
			end, err := jsonspan.SkipString(ctx, i)
			if err != nil { // the walker went through this string to its end
				return append(dst, ctx[i:]...)
			}
			dst = append(dst, ctx[i:end]...)
			i = end
		default:
			dst = append(dst, c)
			i++
		}
	}
	return dst
}
