package fleet

import (
	"fmt"

	"repro/internal/jsonspan"
)

// The batch fan-out never decodes batch items: it splits the client's
// "requests" array into raw byte spans (splitRequests) and forwards them
// verbatim (the shards' answers come back line-framed and are split by
// newline, see parseResults). The one semantic piece it needs — hashing each
// item's context strings for ring lookup — streams the unescaped bytes
// straight into the FNV state below, so routing a 64-item batch allocates
// nothing.

// splitRequests walks the whole top-level object of a batch body and appends
// the span of every item of its "requests" array to spans. It keeps to the
// single handler's grammar (serve's parseBatchBody), error text included, so a
// body refused there is refused here with the same 400 and not routed: the
// object holds nothing but "requests" keys — one as a rule; repeated, their
// arrays add up, as they do there — each an array, members separated as JSON
// separates them, and it is closed. Like the single handler it does not look
// past the closing brace. Items are delimited, not parsed: what is wrong
// inside one is for hashJSONContext or the shard to refuse.
func splitRequests(spans [][2]int, b []byte) ([][2]int, error) {
	i := jsonspan.SkipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return nil, fmt.Errorf("expected a JSON object")
	}
	i++
	sawRequests := false
	for first := true; ; first = false {
		at, done, err := jsonspan.Next(b, i, '}', first)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		i = at
		if b[i] != '"' {
			return nil, fmt.Errorf("expected object key at offset %d", i)
		}
		keyEnd, err := jsonspan.SkipString(b, i)
		if err != nil {
			return nil, err
		}
		key := b[i+1 : keyEnd-1]
		i = jsonspan.SkipSpace(b, keyEnd)
		if i >= len(b) || b[i] != ':' {
			return nil, fmt.Errorf("expected ':' at offset %d", i)
		}
		if string(key) != "requests" {
			return nil, fmt.Errorf("unknown field %q", key)
		}
		sawRequests = true
		i = jsonspan.SkipSpace(b, i+1)
		if i >= len(b) || b[i] != '[' {
			return nil, fmt.Errorf(`"requests" must be an array`)
		}
		i++
		for first := true; ; first = false {
			at, done, err := jsonspan.Next(b, i, ']', first)
			if err != nil {
				return nil, fmt.Errorf("requests: %w", err)
			}
			if done {
				i = at
				break
			}
			if i, err = jsonspan.SkipValue(b, at); err != nil {
				return nil, fmt.Errorf("requests[%d]: %w", len(spans), err)
			}
			spans = append(spans, [2]int{at, i})
		}
	}
	if !sawRequests {
		return nil, fmt.Errorf(`missing "requests" array`)
	}
	return spans, nil
}

// hashJSONContext returns hashStringContext of the "context" array inside the
// batch item span without decoding it. Items without a context hash as empty
// (the shard will reject them with a proper 400 — routing just has to be
// deterministic).
func hashJSONContext(item []byte) (uint64, error) {
	h := uint64(fnvOffset64)
	v, err := jsonspan.FindKey(item, 0, "context")
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return h, nil
	}
	v = jsonspan.SkipSpace(item, v)
	if v >= len(item) || item[v] != '[' {
		// Non-array context: let the shard produce the real error.
		return h, nil
	}
	i := v + 1
	for first := true; ; first = false {
		at, done, err := jsonspan.Next(item, i, ']', first)
		if err != nil {
			return 0, fmt.Errorf("context: %w", err)
		}
		if done {
			return h, nil
		}
		i = at
		if item[i] != '"' {
			return h, nil // non-string element: shard's problem
		}
		end, err := jsonspan.SkipString(item, i)
		if err != nil {
			return 0, err
		}
		h = hashJSONStringInto(h, item[i+1:end-1])
		h ^= 0xFF
		h *= fnvPrime64
		i = end
	}
}

// hashJSONStringInto mixes the unescaped bytes of a JSON string body (the
// token without its quotes) into the FNV state. The escape-free fast path
// touches no memory but the token; escaped tokens are unescaped into a stack
// buffer chunk by chunk.
func hashJSONStringInto(h uint64, tok []byte) uint64 {
	i := 0
	for i < len(tok) && tok[i] != '\\' {
		h ^= uint64(tok[i])
		h *= fnvPrime64
		i++
	}
	if i == len(tok) {
		return h
	}
	var buf [64]byte
	for _, c := range jsonspan.AppendUnescaped(buf[:0], tok[i:]) {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
