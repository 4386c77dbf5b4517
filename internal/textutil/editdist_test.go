package textutil

import (
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func toSeq(raw []uint8) query.Seq {
	s := make(query.Seq, len(raw))
	for i, v := range raw {
		s[i] = query.ID(v)
	}
	return s
}

// The Levenshtein tests check SeqEditDistance against the textbook
// string-distance cases and metric properties, one query ID per byte.

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"goggle", "google", 1}, // the paper's spelling-change example
		{"kitten", "sitting", 3},
		{"smtp", "pop3", 4},
		{"a", "b", 1},
	}
	for _, c := range cases {
		if got := SeqEditDistance(toSeq([]uint8(c.a)), toSeq([]uint8(c.b))); got != c.want {
			t.Errorf("SeqEditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		sa, sb := toSeq(a), toSeq(b)
		return SeqEditDistance(sa, sb) == SeqEditDistance(sb, sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinIdentityAndBounds(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		sa, sb := toSeq(a), toSeq(b)
		d := SeqEditDistance(sa, sb)
		if (d == 0) != sa.Equal(sb) {
			return false
		}
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		return d >= diff && d <= max(len(a), len(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	f := func(a, b, c []uint8) bool {
		if len(a) > 32 {
			a = a[:32]
		}
		if len(b) > 32 {
			b = b[:32]
		}
		if len(c) > 32 {
			c = c[:32]
		}
		sa, sb, sc := toSeq(a), toSeq(b), toSeq(c)
		return SeqEditDistance(sa, sc) <= SeqEditDistance(sa, sb)+SeqEditDistance(sb, sc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b query.Seq
		want int
	}{
		{nil, nil, 0},
		{query.Seq{1, 2, 3}, query.Seq{1, 2, 3}, 0},
		{query.Seq{1, 2, 3}, query.Seq{2, 3}, 1},
		{query.Seq{1, 2, 3}, nil, 3},
		{query.Seq{1, 2}, query.Seq{3, 4}, 2},
		{query.Seq{1, 2, 3}, query.Seq{1, 9, 3}, 1},
	}
	for _, c := range cases {
		if got := SeqEditDistance(c.a, c.b); got != c.want {
			t.Errorf("SeqEditDistance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSeqEditDistanceSymmetry(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) > 24 {
			a = a[:24]
		}
		if len(b) > 24 {
			b = b[:24]
		}
		sa, sb := toSeq(a), toSeq(b)
		return SeqEditDistance(sa, sb) == SeqEditDistance(sb, sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSuffixDistanceFastPath(t *testing.T) {
	ctx := query.Seq{1, 2, 3, 4}
	if got := SuffixDistance(ctx, query.Seq{3, 4}); got != 2 {
		t.Fatalf("SuffixDistance suffix case = %d, want 2", got)
	}
	if got := SuffixDistance(ctx, ctx); got != 0 {
		t.Fatalf("SuffixDistance identical = %d, want 0", got)
	}
	if got := SuffixDistance(ctx, nil); got != 4 {
		t.Fatalf("SuffixDistance empty state = %d, want 4", got)
	}
}

func TestSuffixDistanceFallbackMatchesEditDistance(t *testing.T) {
	ctx := query.Seq{1, 2, 3}
	state := query.Seq{9, 3} // not a suffix
	if got, want := SuffixDistance(ctx, state), SeqEditDistance(ctx, state); got != want {
		t.Fatalf("SuffixDistance fallback = %d, want %d", got, want)
	}
}

func TestSuffixDistanceAgreesWithEditDistanceOnSuffixes(t *testing.T) {
	f := func(raw []uint8, cut uint8) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		s := toSeq(raw)
		if len(s) == 0 {
			return true
		}
		k := int(cut) % (len(s) + 1)
		suf := s[len(s)-k:]
		return SuffixDistance(s, suf) == SeqEditDistance(s, suf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
