package query

import (
	"strings"
	"testing"
)

// oracleNormalize is the four-scan Normalize that the normalizedASCII fast
// path now fronts, kept verbatim as the differential oracle for its output.
func oracleNormalize(q string) string {
	q = strings.ToLower(strings.TrimSpace(q))
	if !strings.ContainsAny(q, "\t\n\r") && !strings.Contains(q, "  ") {
		return q
	}
	return strings.Join(strings.Fields(q), " ")
}

// FuzzNormalize holds Normalize to its oracle on arbitrary strings — request
// queries reach it through Lookup — and holds normalizedASCII to its claim:
// a string it accepts, as a string or as bytes, is one the oracle returns
// unchanged.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "google", "Google", "  o2   mobile  phones ", "a\tb", "a\vb", "a\fb",
		"a\rb", "a\nb", "kidney  stones", " kidney", "kidney ", "HÉLLO", "héllo",
		"a\u0085b", "a b", " x", "a\x01b", "\xff", "K", "İ", "ǅ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		want := oracleNormalize(q)
		if got := Normalize(q); got != want {
			t.Fatalf("Normalize(%q) = %q, oracle %q", q, got, want)
		}
		clean := normalizedASCII(q)
		if clean != normalizedASCII([]byte(q)) {
			t.Fatalf("normalizedASCII(%q) differs between string and []byte", q)
		}
		if clean && want != q {
			t.Fatalf("normalizedASCII(%q) holds but the oracle returns %q", q, want)
		}
	})
}
