package core

import (
	"math"
	"strconv"

	"repro/internal/jsonspan"
)

// Append-style JSON encoding of []Suggestion — the one encoder of the
// `"suggestions":[...]` response member. The HTTP handlers (internal/serve)
// and the result cache (internal/cache), which stores each answer's encoded
// form next to its suggestions, both call it, so cached bytes and a fresh
// encode are byte-identical by construction. encoding/json's Marshal walks
// reflection metadata and allocates its output on every call; these append
// into the caller's (pooled) buffer and allocate nothing.

// AppendSuggestionsJSON appends the `"suggestions":[...]` object member for
// recs to dst: one {"query":...,"score":...} object per suggestion, an empty
// array for no suggestions. The bytes match what encoding/json produces for
// the same values, HTML escaping aside (see jsonspan.AppendString).
func AppendSuggestionsJSON(dst []byte, recs []Suggestion) []byte {
	dst = append(dst, `"suggestions":[`...)
	for i, s := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"query":`...)
		dst = jsonspan.AppendString(dst, s.Query)
		dst = append(dst, `,"score":`...)
		dst = AppendJSONFloat(dst, s.Score)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// AppendJSONFloat appends f in encoding/json's float format (shortest
// round-trip, 'f' form within [1e-6, 1e21), cleaned-up 'e' form outside),
// so responses are byte-identical to the stdlib encoder's. Scores are finite
// by construction; NaN/Inf cannot reach here.
func AppendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// 1e-07 -> 1e-7, matching encoding/json.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
