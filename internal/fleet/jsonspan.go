package fleet

import (
	"fmt"

	"repro/internal/jsonspan"
)

// The batch fan-out never decodes batch items: it splits the client's
// "requests" array into raw byte spans with internal/jsonspan and forwards
// them verbatim (the shards' answers come back line-framed and are split by
// newline, see parseResults). The one semantic piece it needs — hashing each
// item's context strings for ring lookup — streams the unescaped bytes
// straight into the FNV state below, so routing a 64-item batch allocates
// nothing.

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
