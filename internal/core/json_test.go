package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
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

// TestAppendJSONFloatShortestMatchesStrconv is the differential test of the
// Schubfach formatter: over [1e-6, 1e21) it must print exactly what
// strconv.AppendFloat(f, 'f', -1, 64) does — on every power of two in range
// and its neighbours one ulp away (the narrower gap below a power of two),
// both ends of the range, and 2 M seeded draws, half uniform over the
// range's bit patterns, half uniform in [0, 1) as scores are, plus 100 k
// integers below 2^53.
func TestAppendJSONFloatShortestMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(f float64) {
		if !(f >= 1e-6 && f < 1e21) {
			return
		}
		got = AppendJSONFloat(got[:0], f)
		want = strconv.AppendFloat(want[:0], f, 'f', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): got %s, strconv %s", f, math.Float64bits(f), got, want)
		}
	}
	neighbours := func(f float64) {
		check(math.Nextafter(f, 0))
		check(f)
		check(math.Nextafter(f, math.Inf(1)))
	}
	for e := -20; e <= 70; e++ {
		neighbours(math.Ldexp(1, e))
	}
	neighbours(1e-6)
	neighbours(1e21)
	for _, i := range []uint64{1, 9, 10, 99, 100, 123456789, 1e15, 1e15 + 1, 1<<53 - 2, 1<<53 - 1} {
		neighbours(float64(i))
	}
	draws := 2_000_000
	if raceEnabled || testing.Short() {
		draws /= 20
	}
	rng := rand.New(rand.NewSource(44))
	lo, hi := math.Float64bits(1e-6), math.Float64bits(1e21)
	for i := 0; i < draws/2; i++ {
		check(math.Float64frombits(lo + rng.Uint64()%(hi-lo)))
		check(rng.Float64())
	}
	for i := 0; i < draws/20; i++ {
		check(float64(rng.Int63n(1 << 53)))
	}
}

// TestPow10InvTable recomputes the formatter's table with math/big: for each
// k, g = ⌊10^-k·2^-r⌋ + 1 with r the one exponent that puts ⌊10^-k·2^-r⌋ in
// [2^125, 2^126), and the shift shortestDecimal derives r from.
func TestPow10InvTable(t *testing.T) {
	ten := big.NewInt(10)
	for i, g := range pow10Inv {
		k := pow10InvMinK + i
		// 10^-k·2^-r as num/den, with -r = 125 - ⌊-k·log2 10⌋.
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		shift := 125 - int(int64(-k)*913124641741>>38)
		if shift >= 0 {
			num.Lsh(num, uint(shift))
		} else {
			den.Lsh(den, uint(-shift))
		}
		want := new(big.Int).Quo(num, den)
		if want.BitLen() != 126 {
			t.Fatalf("k=%d: ⌊10^-k·2^-r⌋ has %d bits, want 126", k, want.BitLen())
		}
		want.Add(want, big.NewInt(1))
		have := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 63)
		have.Add(have, new(big.Int).SetUint64(g[1]))
		if g[1] >= 1<<63 || have.Cmp(want) != 0 {
			t.Fatalf("k=%d: table has %#x·2^63 + %#x, want %#x", k, g[0], g[1], want)
		}
	}
	if got := pow10InvMinK + len(pow10Inv) - 1; got != 5 {
		t.Fatalf("table ends at k=%d, want 5", got)
	}
}

// FuzzAppendJSONFloat: for any finite float64, AppendJSONFloat writes what
// encoding/json does.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-6, 1e21, 9.999999999999999e20, 0.0026143187066974595, 5e-324, math.MaxFloat64, -2.5} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): got %s, encoding/json %s", v, b, got, want)
		}
	})
}
