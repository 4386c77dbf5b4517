package serve

import (
	"net/http"
	"strconv"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/jsonspan"
)

// Append-style JSON encoding for the hot serving paths. encoding/json's
// Marshal walks reflection metadata and allocates its output buffer on every
// call; the handlers instead append the response bytes directly into a
// pooled buffer, so a cache-hit request performs no encoding allocations at
// all. The suggestion encoder lives in internal/core (AppendSuggestionsJSON),
// shared with the result cache, the string encoder in internal/jsonspan
// (AppendString); this file holds the response envelope around them. Cold endpoints
// (/healthz, /metrics, /reload, errors) keep the stdlib encoder — clarity
// wins where latency does not matter.

// setJSONContentType assigns the shared header value directly into the
// response header map. (http.Header.Set allocates a fresh []string per call;
// sharing one slice keeps the hot path clean. The key is already in canonical
// form.)
func setJSONContentType(w http.ResponseWriter) {
	w.Header()["Content-Type"] = fleet.JSONContentType
}

// appendSuggestResponse encodes a SuggestResponse whose context is held as
// raw decoded bytes — the GET /suggest hot path. The suggestions member comes
// from the answer: the cache's stored wire bytes on a hit, the core encoder
// otherwise.
func appendSuggestResponse(dst []byte, context [][]byte, ans cache.Answer, tookMicros int64) []byte {
	dst = append(dst, `{"context":[`...)
	for i, q := range context {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonspan.AppendString(dst, q)
	}
	dst = append(dst, `],`...)
	dst = ans.AppendSuggestionsJSON(dst)
	dst = append(dst, `,"took_us":`...)
	dst = strconv.AppendInt(dst, tookMicros, 10)
	return append(dst, '}')
}
