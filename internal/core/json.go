package core

import (
	"math"
	"math/bits"
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
// by construction; NaN/Inf cannot reach here. Within [1e-6, 1e21), where
// every score lands, the digits are Schubfach's (shortestDecimal): the
// decimal strconv's Ryu prints, in about half its time. The 'e' forms, zero
// and negatives take strconv, which every test holds the fast path to.
func AppendJSONFloat(dst []byte, f float64) []byte {
	if f >= 1e-6 && f < 1e21 {
		d, e := shortestDecimal(f)
		return appendFixed(dst, d, e)
	}
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

// appendFixed appends d·10^e in 'f' form: d's digits, then e zeros, or with
// a point -e digits from the right ("0." and zeros first when d is shorter).
func appendFixed(dst []byte, d uint64, e int) []byte {
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], d, 10)
	point := len(digits) + e // digits before the point
	switch {
	case e >= 0:
		dst = append(dst, digits...)
		for ; e > 0; e-- {
			dst = append(dst, '0')
		}
	case point > 0:
		dst = append(append(append(dst, digits[:point]...), '.'), digits[point:]...)
	default:
		dst = append(dst, "0."...)
		for ; point < 0; point++ {
			dst = append(dst, '0')
		}
		dst = append(dst, digits...)
	}
	return dst
}

// shortestDecimal returns d and e, d without trailing zeros, such that
// d·10^e is the decimal with the fewest digits that reads back as f, the one
// closest to f if several have that many, the even one of a tie: what
// strconv.FormatFloat(f, 'f', -1, 64) prints. f must be in [1e-6, 1e21).
//
// The algorithm is Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020), the one Java's Double.toString uses. With f = c·2^q, it
// scales f and the two ends of its rounding interval by 10^-k, k =
// ⌊q·log10 2⌋, one 126-bit multiplication each (rop), rounded to odd so that
// every comparison below is exact. The interval is narrower than 10^(k+1), so
// it holds at most one multiple of 10^(k+1): that one if there is one,
// otherwise whichever of the two multiples of 10^k around f is closer.
func shortestDecimal(f float64) (d uint64, e int) {
	b := math.Float64bits(f)
	c := b&(1<<52-1) | 1<<52
	q := int(b>>52) - 1075
	if -52 <= q && q < 0 { // an integer below 2^53 is its own shortest form
		if i := c >> -q; i<<-q == c {
			return trimZeros(i, 0)
		}
	}
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := int(int64(q) * 661971961083 >> 41) // ⌊q·log10 2⌋
	if c == 1<<52 {
		// A power of two: the gap below is half the gap above.
		cbl = cb - 1
		k = int((int64(q)*661971961083 - 274743187321) >> 41) // ⌊log10(¾·2^q)⌋
	}
	h := q + int(int64(-k)*913124641741>>38) + 2 // q + ⌊-k·log2 10⌋ + 2, in [1, 4]
	g := &pow10Inv[k-pow10InvMinK]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)
	out := c & 1 // an odd c's interval excludes its ends
	s := vb >> 2 // ⌊f·10^-k⌋, at least 16 digits
	sp, tp := s/10*10, s/10*10+10
	if upin, wpin := vbl+out <= sp<<2, tp<<2+out <= vbr; upin != wpin {
		if upin {
			return trimZeros(sp, k)
		}
		return trimZeros(tp, k)
	}
	// Neither multiple of 10^(k+1) is in: s or t = s+1, whichever is in,
	// or the closer (the even one of a tie) if both are.
	t := s + 1
	uin, win := vbl+out <= s<<2, t<<2+out <= vbr
	if cmp := int64(vb - (s+t)<<1); uin && !win || uin == win && (cmp < 0 || cmp == 0 && s&1 == 0) {
		return trimZeros(s, k)
	}
	return trimZeros(t, k)
}

// trimZeros returns d·10^e with d's trailing zeros moved into e.
func trimZeros(d uint64, e int) (uint64, int) {
	for d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// rop returns g·cp / 2^127 rounded to odd, g = g1·2^63 + g0: the product's
// integer part with its lowest bit set if any fraction was dropped.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// pow10InvMinK is the smallest k shortestDecimal meets: a double in
// [1e-6, 1e21) has q in [-72, 17], so k is in [-22, 5].
const pow10InvMinK = -22

// pow10Inv[k-pow10InvMinK] is {g1, g0}: g = g1·2^63 + g0 = ⌊10^-k·2^-r⌋ + 1
// for the r that puts g in [2^125, 2^126], split into 63-bit halves.
// TestPow10InvTable recomputes every entry with math/big.
var pow10Inv = [...][2]uint64{
	{0x43c33c1937564800, 1}, {0x6c6b935b8bbd4000, 1}, // k = -22, -21
	{0x56bc75e2d6310000, 1}, {0x4563918244f40000, 1},
	{0x6f05b59d3b200000, 1}, {0x58d15e1762800000, 1},
	{0x470de4df82000000, 1}, {0x71afd498d0000000, 1},
	{0x5af3107a40000000, 1}, {0x48c2739500000000, 1},
	{0x746a528800000000, 1}, {0x5d21dba000000000, 1},
	{0x4a817c8000000000, 1}, {0x7735940000000000, 1},
	{0x5f5e100000000000, 1}, {0x4c4b400000000000, 1},
	{0x7a12000000000000, 1}, {0x61a8000000000000, 1},
	{0x4e20000000000000, 1}, {0x7d00000000000000, 1},
	{0x6400000000000000, 1}, {0x5000000000000000, 1},
	{0x4000000000000000, 1}, {0x6666666666666666, 0x3333333333333334}, // k = 0, 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, {0x4189374bc6a7ef9d, 0x5916872b020c49bb},
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, {0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // k = 4, 5
}
