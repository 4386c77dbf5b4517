package fleet

import (
	"bytes"
	"fmt"
	"net/http"

	"repro/internal/jsonspan"
	"repro/internal/obs"
)

// ReadBatch reads a POST /suggest/batch body into body and walks it into items
// and toks (jsonspan.AppendBatch), the shard router and the single handler
// alike. A body past jsonspan.MaxBatchBytes, one outside the grammar, an empty
// batch and one of more than jsonspan.MaxBatchItems items are answered 400
// here, in the same words from either, and ok is false. The buffers come back
// grown either way, for the caller's pool.
func ReadBatch(w http.ResponseWriter, r *http.Request, body []byte, items []jsonspan.Item, toks [][2]int) (_ []byte, _ []jsonspan.Item, _ [][2]int, ok bool) {
	body, err := AppendReadAll(body, http.MaxBytesReader(w, r.Body, jsonspan.MaxBatchBytes))
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return body, items, toks, false
	}
	items, toks, err = jsonspan.AppendBatch(items, toks, body)
	switch {
	case err != nil:
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
	case len(items) == 0:
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "empty batch: requests must contain at least one context")
	case len(items) > jsonspan.MaxBatchItems:
		obs.WriteError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d exceeds limit %d", len(items), jsonspan.MaxBatchItems))
	default:
		return body, items, toks, true
	}
	return body, items, toks, false
}

// The ring key of a context is the FNV-1a of its query strings, each closed by
// a 0xFF byte. The router never parses a request to get at them: the batch
// fan-out hashes the token spans jsonspan.AppendBatch walked for it, the GET
// hop the pairs jsonspan.Query yields — the walkers the shard's own handler
// serves from — so a context is hashed as exactly the bytes it is served as,
// whichever way it came in, and routing a 64-item batch allocates nothing.

// mixString mixes one decoded context string into the FNV-1a state and closes
// it with 0xFF, which no UTF-8 string holds: ["ab"] and ["a","b"] differ.
func mixString(h uint64, s []byte) uint64 {
	for _, c := range s {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	h ^= 0xFF
	return h * fnvPrime64
}

// hashBatchContext is the ring key of a batch item: mixString over its context
// strings, toks being their spans in body (jsonspan.Item). An escape-free
// string touches no memory but its own; an escaped one is unescaped on the
// stack.
func hashBatchContext(body []byte, toks [][2]int) uint64 {
	h := uint64(fnvOffset64)
	for _, sp := range toks {
		tok := body[sp[0]:sp[1]]
		if bytes.IndexByte(tok, '\\') >= 0 {
			var buf [64]byte
			tok = jsonspan.AppendUnescaped(buf[:0], tok)
		}
		h = mixString(h, tok)
	}
	return h
}

// hashQueryContext is the ring key of a GET's context: mixString over the q
// values of the raw query string, as the query walker decodes them — a pair it
// drops is not hashed, as the shard will not serve it.
func hashQueryContext(raw string) uint64 {
	var buf [64]byte
	h := uint64(fnvOffset64)
	q := jsonspan.Query(raw)
	for key, val, _, ok := q.Next(buf[:0]); ok; key, val, _, ok = q.Next(buf[:0]) {
		if key == "q" {
			h = mixString(h, val)
		}
	}
	return h
}
