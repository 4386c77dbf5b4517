package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/jsonspan"
)

// nastyQueries stresses the string escaper: quotes, backslashes, every
// short-form control escape, \u00XX control bytes, non-ASCII, markup.
var nastyQueries = []string{
	"", "plain", "with space", `quote " inside`, `back\slash`,
	"tab\there", "new\nline", "cr\rhere", "control\x01char", "nul\x00byte", "unit\x1fsep",
	"unicode héllo 日本語", "<script>&amp;</script>", "ends with \\", `"`,
}

// randomScore lands on both sides of encoding/json's 'e'-format thresholds.
func randomScore(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return rng.Float64()
	case 1:
		return rng.Float64() * 1e-9 // below 1e-6: 'e' form, exponent cleaned up
	case 2:
		return (1 + rng.Float64()) * 1e21 // at or above 1e21: 'e' form
	case 3:
		return math.Float64frombits(rng.Uint64() & 0x7fefffffffffffff) // finite, any magnitude
	case 4:
		return -rng.Float64()
	default:
		return 0
	}
}

// stdlibSuggestions is the `"suggestions":[...]` member as encoding/json
// writes it with HTML escaping off (the append encoder passes <, >, &
// through).
func stdlibSuggestions(t *testing.T, recs []Suggestion) []byte {
	t.Helper()
	type suggestion struct {
		Query string  `json:"query"`
		Score float64 `json:"score"`
	}
	member := struct {
		Suggestions []suggestion `json:"suggestions"`
	}{Suggestions: make([]suggestion, len(recs))}
	for i, s := range recs {
		member.Suggestions[i] = suggestion(s)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(member); err != nil {
		t.Fatal(err)
	}
	// Strip the object's braces and Encode's trailing newline.
	return buf.Bytes()[1 : buf.Len()-2]
}

// TestAppendSuggestionsJSONMatchesStdlib is the property behind the
// hand-rolled encoder: for adversarial suggestion strings and scores, and
// for the empty list, the appended member is byte-identical to the one
// encoding/json produces. (The two legitimately differ only on inputs the
// table leaves out: \b and \f, which the stdlib writes in short form,
// U+2028/U+2029 and invalid UTF-8, which it escapes or replaces.)
func TestAppendSuggestionsJSONMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var recs []Suggestion
		if trial%8 != 0 { // every eighth list is empty
			recs = make([]Suggestion, 1+rng.Intn(6))
			for i := range recs {
				recs[i] = Suggestion{Query: nastyQueries[rng.Intn(len(nastyQueries))], Score: randomScore(rng)}
			}
		}
		got := AppendSuggestionsJSON(nil, recs)
		if want := stdlibSuggestions(t, recs); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
		// Appending must extend dst, never rewrite it.
		pre := []byte(`{"x":1,`)
		if ext := AppendSuggestionsJSON(pre, recs); !bytes.Equal(ext[:len(pre)], pre) || !bytes.Equal(ext[len(pre):], got) {
			t.Fatalf("trial %d: append onto a prefix gave %s", trial, ext)
		}
	}
}

// TestAppendJSONStringBytesAndStringAgree: the escaper's two instantiations
// — string (suggestions) and []byte (the /suggest context echo) — write the
// same literal, and it decodes back to the input.
func TestAppendJSONStringBytesAndStringAgree(t *testing.T) {
	for _, s := range append(nastyQueries, "bell\bfeed\f", "\u2028\u2029") {
		fromString := jsonspan.AppendString(nil, s)
		fromBytes := jsonspan.AppendString(nil, []byte(s))
		if !bytes.Equal(fromString, fromBytes) {
			t.Fatalf("%q: string form %s, bytes form %s", s, fromString, fromBytes)
		}
		var back string
		if err := json.Unmarshal(fromString, &back); err != nil || back != s {
			t.Fatalf("%q: literal %s decodes to %q (%v)", s, fromString, back, err)
		}
	}
}

// TestAppendJSONFloatMatchesStdlib pins the float formatting byte-for-byte
// against encoding/json across magnitudes.
func TestAppendJSONFloatMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := []float64{0, 1, -1, 0.5, 1e-6, 9.999e-7, 1e21, 9.999e20, 1e-300, 2.5e-7, 0.0026143187066974595}
	for i := 0; i < 500; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()&0x7fefffffffffffff))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONFloat(nil, v); string(got) != string(want) {
			t.Fatalf("float %v: got %s, stdlib %s", v, got, want)
		}
	}
}
