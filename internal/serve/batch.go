package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jsonspan"
	"repro/internal/query"
)

// POST /suggest/batch without encoding/json on the hot path: the body is
// read into a pooled buffer, split into item spans with internal/jsonspan,
// and each item's context strings are unescaped into pooled flat storage and
// interned byte-wise — no Go string is ever materialised for a context. The
// response echoes each item's context array span verbatim from the request
// body (zero-copy) around the pooled append-style suggestion encoder. The
// shard fan-out drives 64-item batches through this path per sub-batch, so
// its allocation discipline is what BenchmarkShardFanout64 gates.

// batchItemSpan is one parsed batch item: where its context array lives in
// the body (for the verbatim echo), which decoded tokens are its context
// queries, and its requested n.
type batchItemSpan struct {
	ctxSpan      [2]int32 // raw "context" array value span in body
	tokLo, tokHi int32    // token range in spans/raw
	n            int
}

// batchScratch pools every per-batch buffer of suggestBatch.
type batchScratch struct {
	body  []byte
	items []batchItemSpan
	spans [][2]int32 // decoded token spans into flat
	flat  []byte     // decoded context tokens, back to back
	raw   [][]byte   // views into flat, one per token
	ids   query.Seq  // interned IDs, back to back
	idOff []int32    // per-item offsets into ids (len(items)+1)
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
	bb.spans = bb.spans[:0]
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

// appendReadAll reads rd to EOF, appending to buf — io.ReadAll with a
// recycled destination.
func appendReadAll(buf []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// parseBatchBody splits the request body into batch item spans, rejecting
// unknown fields like the previous encoding/json decoder did
// (DisallowUnknownFields). Only spans and token positions are recorded; no
// item bytes are copied except unescaped context tokens into flat.
func (bb *batchScratch) parseBatchBody() error {
	b := bb.body
	i := jsonspan.SkipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return fmt.Errorf("expected a JSON object")
	}
	i++
	sawRequests := false
	for first := true; ; first = false {
		at, done, err := jsonspan.Next(b, i, '}', first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		i = at
		if b[i] != '"' {
			return fmt.Errorf("expected object key at offset %d", i)
		}
		keyEnd, err := jsonspan.SkipString(b, i)
		if err != nil {
			return err
		}
		key := b[i+1 : keyEnd-1]
		i = jsonspan.SkipSpace(b, keyEnd)
		if i >= len(b) || b[i] != ':' {
			return fmt.Errorf("expected ':' at offset %d", i)
		}
		i++
		if string(key) != "requests" {
			return fmt.Errorf("unknown field %q", key)
		}
		sawRequests = true
		if i, err = bb.parseItems(i); err != nil {
			return err
		}
	}
	if !sawRequests {
		return fmt.Errorf(`missing "requests" array`)
	}
	return nil
}

// parseItems parses the "requests" array starting at bb.body[i], returning
// the index after it.
func (bb *batchScratch) parseItems(i int) (int, error) {
	b := bb.body
	i = jsonspan.SkipSpace(b, i)
	if i >= len(b) || b[i] != '[' {
		return 0, fmt.Errorf(`"requests" must be an array`)
	}
	i++
	for first := true; ; first = false {
		at, done, err := jsonspan.Next(b, i, ']', first)
		if err != nil {
			return 0, fmt.Errorf("requests: %w", err)
		}
		if done {
			return at, nil
		}
		if i, err = bb.parseItem(at); err != nil {
			return 0, fmt.Errorf("requests[%d]: %w", len(bb.items)-1, err)
		}
	}
}

// parseItem parses one batch item object starting at bb.body[i]: its context
// array span is recorded for the verbatim echo, each context string is
// unescaped into flat, and n is parsed in place.
func (bb *batchScratch) parseItem(i int) (int, error) {
	bb.items = append(bb.items, batchItemSpan{tokLo: int32(len(bb.spans)), tokHi: int32(len(bb.spans))})
	item := &bb.items[len(bb.items)-1]
	b := bb.body
	i = jsonspan.SkipSpace(b, i)
	if i >= len(b) || b[i] != '{' {
		return 0, fmt.Errorf("expected an object")
	}
	i++
	for first := true; ; first = false {
		at, done, err := jsonspan.Next(b, i, '}', first)
		if err != nil {
			return 0, err
		}
		if done {
			return at, nil
		}
		i = at
		if b[i] != '"' {
			return 0, fmt.Errorf("expected object key at offset %d", i)
		}
		keyEnd, err := jsonspan.SkipString(b, i)
		if err != nil {
			return 0, err
		}
		key := b[i+1 : keyEnd-1]
		i = jsonspan.SkipSpace(b, keyEnd)
		if i >= len(b) || b[i] != ':' {
			return 0, fmt.Errorf("expected ':' at offset %d", i)
		}
		i++
		switch string(key) {
		case "context":
			i = jsonspan.SkipSpace(b, i)
			start := i
			if i, err = bb.parseContext(i, item); err != nil {
				return 0, err
			}
			item.ctxSpan = [2]int32{int32(start), int32(i)}
		case "n":
			i = jsonspan.SkipSpace(b, i)
			numStart := i
			if i, err = jsonspan.SkipValue(b, i); err != nil {
				return 0, err
			}
			v, err := strconv.Atoi(string(b[numStart:i]))
			if err != nil {
				return 0, fmt.Errorf("n must be an integer")
			}
			item.n = v
		default:
			return 0, fmt.Errorf("unknown field %q", key)
		}
	}
}

// parseContext parses the item's context string array, unescaping each
// element into flat and recording its token span. The array is echoed into
// the response as it came, so it has to be JSON as it stands: a stray comma is
// refused (jsonspan.Next), and so is a raw control byte inside a string, as
// encoding/json refuses it — a raw LF there would break an NDJSON line in two.
func (bb *batchScratch) parseContext(i int, item *batchItemSpan) (int, error) {
	b := bb.body
	if i >= len(b) || b[i] != '[' {
		return 0, fmt.Errorf("context must be an array of strings")
	}
	i++
	for first := true; ; first = false {
		at, done, err := jsonspan.Next(b, i, ']', first)
		if err != nil {
			return 0, fmt.Errorf("context: %w", err)
		}
		if done {
			return at, nil
		}
		i = at
		if b[i] != '"' {
			return 0, fmt.Errorf("context must be an array of strings")
		}
		end, err := skipContextString(b, i)
		if err != nil {
			return 0, err
		}
		start := len(bb.flat)
		bb.flat = jsonspan.AppendUnescaped(bb.flat, b[i+1:end-1])
		bb.spans = append(bb.spans, [2]int32{int32(start), int32(len(bb.flat))})
		item.tokHi = int32(len(bb.spans))
		i = end
	}
}

// skipContextString is jsonspan.SkipString for a context string: it advances
// past the string whose opening quote is at b[i], and in the same pass refuses
// what encoding/json refuses inside one — a raw control byte, an escape that
// is none of JSON's — because the string is echoed (see parseContext).
func skipContextString(b []byte, i int) (int, error) {
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c < 0x20:
			return 0, fmt.Errorf("control character in string at offset %d", j)
		case c == '"':
			return j + 1, nil
		case c == '\\':
			j++
			if j == len(b) {
				continue // off the end: unterminated
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if j+4 >= len(b) || !isHex(b[j+1]) || !isHex(b[j+2]) || !isHex(b[j+3]) || !isHex(b[j+4]) {
					return 0, fmt.Errorf("invalid \\u escape in string at offset %d", j-1)
				}
				j += 4
			default:
				return 0, fmt.Errorf("invalid escape in string at offset %d", j-1)
			}
		}
	}
	return 0, fmt.Errorf("unterminated string at offset %d", i)
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// suggestBatch scores a whole batch through one shared-scratch batched trie
// descent per arm (cache misses only; hits come straight from the LRU) and
// encodes the response with the pooled append encoder. See the file comment
// for the allocation discipline.
func (h *Handler) suggestBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	bb := batchScratchPool.Get().(*batchScratch)
	defer putBatchScratch(bb)
	var err error
	if bb.body, err = appendReadAll(bb.body, http.MaxBytesReader(w, r.Body, 1<<22)); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	if err := bb.parseBatchBody(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if len(bb.items) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty batch: requests must contain at least one context")
		return
	}
	if len(bb.items) > h.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d exceeds limit %d", len(bb.items), h.opts.MaxBatch))
		return
	}
	for i := range bb.items {
		item := &bb.items[i]
		if item.tokHi == item.tokLo {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("requests[%d]: empty context", i))
			return
		}
		if item.n < 0 || item.n > h.opts.MaxN {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("requests[%d]: n must be in [1,%d] (or omitted)", i, h.opts.MaxN))
			return
		}
		n := item.n
		if n == 0 {
			n = h.opts.DefaultN
		}
		bb.ns = append(bb.ns, n)
	}
	// Materialise token views only now: flat has stopped growing, so the
	// subslices cannot dangle.
	for _, sp := range bb.spans {
		bb.raw = append(bb.raw, bb.flat[sp[0]:sp[1]])
	}
	// Intern every context against the serving dictionary (the router's base
	// dictionary in fleet mode), back to back; views follow once ids is
	// stable.
	st := h.state.Load()
	bb.idOff = append(bb.idOff, 0)
	for i := range bb.items {
		item := &bb.items[i]
		toks := bb.raw[item.tokLo:item.tokHi]
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
	h.histServe.RecordN(perCtx, len(bb.items))
	h.m.batches.Add(1)
	h.m.batchContexts.Add(uint64(len(bb.items)))
	if wantsNDJSONStream(r) {
		// NDJSON mode: one {"index":N,"result":{...}} line per item, the
		// item object byte-identical to its buffered counterpart. A single
		// handler scores the whole batch in one descent pass, so the lines
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
		w.Header()["Content-Type"] = ndjsonHeaderValue
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
	sp := bb.items[i].ctxSpan
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

// appendCompactContext appends a parsed context array without the whitespace
// between its tokens. Its strings hold no raw CR or LF (parseContext), so
// what is appended is one line.
func appendCompactContext(dst, ctx []byte) []byte {
	for i := 0; i < len(ctx); {
		switch c := ctx[i]; c {
		case ' ', '\t', '\n', '\r':
			i++
		case '"':
			end, err := jsonspan.SkipString(ctx, i)
			if err != nil { // parseContext walked this string to its end
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

// wantsNDJSONStream reports whether the batch request opted into the
// streaming NDJSON response shape: ?stream=1 in the query string or an
// Accept header naming application/x-ndjson. The query string is scanned
// in place to keep the buffered hot path free of url.Query allocations.
func wantsNDJSONStream(r *http.Request) bool {
	raw := r.URL.RawQuery
	for len(raw) > 0 {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		if seg == "stream=1" {
			return true
		}
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// ndjsonHeaderValue is the shared Content-Type slice for NDJSON batch
// responses.
var ndjsonHeaderValue = []string{"application/x-ndjson"}
