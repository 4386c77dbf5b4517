package fleet

import (
	"bytes"

	"repro/internal/jsonspan"
)

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
