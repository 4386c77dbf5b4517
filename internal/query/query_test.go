package query

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDictInternAssignsDenseIDs(t *testing.T) {
	d := NewDict()
	a := d.Intern("java")
	b := d.Intern("java island")
	c := d.Intern("sun java")
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("expected dense IDs 0,1,2; got %d,%d,%d", a, b, c)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

func TestDictInternIsIdempotent(t *testing.T) {
	d := NewDict()
	a := d.Intern("nokia n73")
	b := d.Intern("nokia n73")
	if a != b {
		t.Fatalf("re-interning changed ID: %d vs %d", a, b)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDictNormalizesBeforeInterning(t *testing.T) {
	d := NewDict()
	a := d.Intern("  Kidney  Stones ")
	b := d.Intern("kidney stones")
	if a != b {
		t.Fatalf("normalised variants got distinct IDs %d and %d", a, b)
	}
	if got := d.String(a); got != "kidney stones" {
		t.Fatalf("String(%d) = %q, want %q", a, got, "kidney stones")
	}
}

func TestDictLookupDoesNotIntern(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup("unseen"); ok {
		t.Fatal("Lookup reported an unseen query as known")
	}
	if d.Len() != 0 {
		t.Fatalf("Lookup interned the query; Len = %d", d.Len())
	}
	id := d.Intern("seen")
	got, ok := d.Lookup("seen")
	if !ok || got != id {
		t.Fatalf("Lookup(seen) = %d,%v; want %d,true", got, ok, id)
	}
}

func TestDictStringOutOfRange(t *testing.T) {
	d := NewDict()
	if s := d.String(99); s != "" {
		t.Fatalf("String(99) on empty dict = %q, want empty", s)
	}
	if s := d.String(Invalid); s != "" {
		t.Fatalf("String(Invalid) = %q, want empty", s)
	}
}

func TestDictStringsReturnsIDOrder(t *testing.T) {
	d := NewDict()
	in := []string{"smtp", "pop3", "imap"}
	for _, q := range in {
		d.Intern(q)
	}
	got := d.Strings()
	if len(got) != len(in) {
		t.Fatalf("Strings returned %d entries, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("Strings[%d] = %q, want %q", i, got[i], in[i])
		}
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	done := make(chan ID, 64)
	for i := 0; i < 64; i++ {
		go func() { done <- d.Intern("concurrent query") }()
	}
	first := <-done
	for i := 1; i < 64; i++ {
		if id := <-done; id != first {
			t.Fatalf("concurrent interning produced distinct IDs %d and %d", first, id)
		}
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d after concurrent interning of one query", d.Len())
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Google", "google"},
		{"  o2   mobile  phones ", "o2 mobile phones"},
		{"a\tb", "a b"},
		{"already clean", "already clean"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestInternClonesSubstring: a query interned from a substring of a larger
// string — a field of a log line — is stored as a copy of its own, so the
// dictionary does not keep the whole line alive.
func TestInternClonesSubstring(t *testing.T) {
	line := "m00042\tkidney stones\t2026-01-15T00:08:41Z\t0" + strings.Repeat("x", 4096)
	q := line[7:20]
	d := NewDict()
	id := d.Intern(q)
	stored := d.String(id)
	if stored != "kidney stones" {
		t.Fatalf("interned %q, want %q", stored, "kidney stones")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(stored))); p >= lo && p < lo+uintptr(len(line)) {
		t.Fatal("the dictionary stores a pointer into the interned string's backing line")
	}
}

func TestSeqSuffixAndTail(t *testing.T) {
	s := Seq{1, 2, 3, 4}
	if got := s.Suffix(); !got.Equal(Seq{2, 3, 4}) {
		t.Fatalf("Suffix = %v", got)
	}
	if got := (Seq{7}).Suffix(); got != nil {
		t.Fatalf("Suffix of 1-element seq = %v, want nil", got)
	}
	if got := s.Tail(2); !got.Equal(Seq{3, 4}) {
		t.Fatalf("Tail(2) = %v", got)
	}
	if got := s.Tail(0); got != nil {
		t.Fatalf("Tail(0) = %v, want nil", got)
	}
	if got := s.Tail(10); !got.Equal(s) {
		t.Fatalf("Tail(10) = %v, want whole sequence", got)
	}
}

func TestSeqHasSuffix(t *testing.T) {
	s := Seq{5, 6, 7}
	for _, suf := range []Seq{nil, {7}, {6, 7}, {5, 6, 7}} {
		if !s.HasSuffix(suf) {
			t.Errorf("HasSuffix(%v) = false, want true", suf)
		}
	}
	for _, suf := range []Seq{Seq{5}, Seq{5, 6}, Seq{7, 7}, Seq{1, 5, 6, 7}} {
		if s.HasSuffix(suf) {
			t.Errorf("HasSuffix(%v) = true, want false", suf)
		}
	}
}

func TestSeqAppendDoesNotMutate(t *testing.T) {
	s := Seq{1, 2}
	u := s.Append(3)
	v := s.Append(4)
	if !u.Equal(Seq{1, 2, 3}) || !v.Equal(Seq{1, 2, 4}) {
		t.Fatalf("Append aliasing: u=%v v=%v", u, v)
	}
	if !s.Equal(Seq{1, 2}) {
		t.Fatalf("receiver mutated: %v", s)
	}
}

func TestSeqLastPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Last on empty sequence did not panic")
		}
	}()
	Seq{}.Last()
}

func TestSeqKeyRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		s := make(Seq, len(raw))
		for i, v := range raw {
			s[i] = ID(v)
		}
		dec := SeqFromKey(s.Key())
		if len(s) == 0 {
			return dec == nil
		}
		return dec.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqKeyInjective(t *testing.T) {
	f := func(a, b []uint32) bool {
		sa := make(Seq, len(a))
		for i, v := range a {
			sa[i] = ID(v)
		}
		sb := make(Seq, len(b))
		for i, v := range b {
			sb[i] = ID(v)
		}
		if sa.Key() == sb.Key() {
			return sa.Equal(sb)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqFromKeyPanicsOnMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SeqFromKey on misaligned key did not panic")
		}
	}()
	SeqFromKey("abc")
}

func TestSeqFormat(t *testing.T) {
	d := NewDict()
	s := Seq{d.Intern("o2"), d.Intern("o2 mobile"), d.Intern("o2 mobile phones")}
	want := "o2 => o2 mobile => o2 mobile phones"
	if got := s.Format(d); got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
	if got := Seq(nil).Format(d); got != "<empty>" {
		t.Fatalf("Format(empty) = %q", got)
	}
}

func TestSortSessions(t *testing.T) {
	ss := []Session{
		{Queries: Seq{3}, Count: 5},
		{Queries: Seq{1}, Count: 9},
		{Queries: Seq{2}, Count: 5},
	}
	SortSessions(ss)
	if ss[0].Count != 9 {
		t.Fatalf("first session count = %d, want 9", ss[0].Count)
	}
	// Equal counts tie-break on encoded key: ID 2 sorts before ID 3.
	if !ss[1].Queries.Equal(Seq{2}) || !ss[2].Queries.Equal(Seq{3}) {
		t.Fatalf("tie-break order wrong: %v then %v", ss[1].Queries, ss[2].Queries)
	}
}

func TestSeqCloneIndependence(t *testing.T) {
	s := Seq{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone aliases the receiver")
	}
	if Seq(nil).Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

// TestLookupBytesMatchesLookup: the byte-slice fast path must resolve every
// input exactly like the string path, including ones needing normalisation
// (upper case, exotic whitespace, Unicode) and ones that do not.
func TestLookupBytesMatchesLookup(t *testing.T) {
	d := NewDict()
	d.Intern("kidney stones")
	d.Intern("nokia n73")
	d.Intern("héllo")
	inputs := []string{
		"kidney stones", "Kidney Stones", " kidney stones ", "kidney  stones",
		"kidney\tstones", "kidney\vstones", "kidney\fstones",
		"kidney stones\f", "\vkidney stones", "nokia n73", "HÉLLO", "héllo",
		"unknown", "", " ", "a\x01b",
	}
	for _, in := range inputs {
		wantID, wantOK := d.Lookup(in)
		gotID, gotOK := d.LookupBytes([]byte(in))
		if wantID != gotID || wantOK != gotOK {
			t.Errorf("LookupBytes(%q) = (%v, %v), Lookup = (%v, %v)", in, gotID, gotOK, wantID, wantOK)
		}
	}
}

// TestDictHashExtends: Hash must fingerprint the ID assignment (order
// matters, framing prevents boundary aliasing) and Extends must accept
// exactly the ID-preserving prefix relation the reload compatibility check
// is built on.
func TestDictHashExtends(t *testing.T) {
	a := NewDict()
	a.Intern("o2")
	a.Intern("o2 mobile")

	same := NewDict()
	same.Intern("o2")
	same.Intern("o2 mobile")
	if a.Hash() != same.Hash() {
		t.Fatal("identical dictionaries hash differently")
	}

	reordered := NewDict()
	reordered.Intern("o2 mobile")
	reordered.Intern("o2")
	if a.Hash() == reordered.Hash() {
		t.Fatal("reordered IDs must change the hash")
	}

	framed := NewDict()
	framed.Intern("o")
	framed.Intern("2o2 mobile")
	if a.Hash() == framed.Hash() {
		t.Fatal("length framing failed: shifted string boundaries collide")
	}

	ext := NewDict()
	ext.Intern("o2")
	ext.Intern("o2 mobile")
	ext.Intern("smtp")
	if !ext.Extends(a) {
		t.Fatal("superset with preserved IDs must extend the base")
	}
	if a.Extends(ext) {
		t.Fatal("a shorter dictionary cannot extend its extension")
	}
	if !a.Extends(a) {
		t.Fatal("a dictionary must extend itself")
	}
	if !a.Extends(NewDict()) {
		t.Fatal("every dictionary extends the empty dictionary")
	}
	if ext.Extends(reordered) {
		t.Fatal("permuted IDs must not count as an extension")
	}
	if a.Hash() == ext.Hash() {
		t.Fatal("extension must still change the hash")
	}
}

// TestPublishedDictConcurrentReadersAndIntern: readers hammer a published
// dictionary through the lock-free paths while another goroutine interns new
// strings into it, which copies the tables and drops the snapshot. A reader
// sees every pre-existing query under its ID throughout, and a new one either
// not at all or under the ID it was given — never a torn table. Meaningful
// under -race.
func TestPublishedDictConcurrentReadersAndIntern(t *testing.T) {
	const old, fresh, readers = 200, 200, 4
	d := NewDict()
	oldQ, freshQ := make([][]byte, old), make([][]byte, fresh)
	for i := range oldQ {
		oldQ[i] = fmt.Appendf(nil, "old query %d", i)
		d.Intern(string(oldQ[i]))
	}
	for i := range freshQ {
		freshQ[i] = fmt.Appendf(nil, "fresh query %d", i)
	}
	table := d.Publish()
	if len(table) != old || table[old-1] != string(oldQ[old-1]) {
		t.Fatalf("published table holds %d strings, last %q", len(table), table[len(table)-1])
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass++ {
				select {
				case <-done:
					if pass > 0 {
						return
					}
				default:
				}
				for i, q := range oldQ {
					if id, ok := d.LookupBytes(q); !ok || id != ID(i) || d.String(id) != string(q) {
						t.Errorf("pre-existing %q resolved to (%d, %v) -> %q", q, id, ok, d.String(id))
						return
					}
				}
				for i, q := range freshQ {
					id, ok := d.LookupBytes(q)
					if ok && (id != ID(old+i) || d.String(id) != string(q) || d.Len() <= int(id)) {
						t.Errorf("new %q resolved to %d -> %q with Len %d", q, id, d.String(id), d.Len())
						return
					}
				}
				if n := d.Len(); n < old || n > old+fresh {
					t.Errorf("Len = %d", n)
					return
				}
			}
		}()
	}
	for i, q := range freshQ {
		if id := d.Intern(string(q)); id != ID(old+i) {
			t.Errorf("Intern(%q) = %d, want %d", q, id, old+i)
		}
	}
	close(done)
	wg.Wait()

	if len(table) != old || table[0] != string(oldQ[0]) || table[old-1] != string(oldQ[old-1]) {
		t.Fatal("interning wrote into the table a reader may still hold")
	}
	if again := d.Publish(); len(again) != old+fresh || again[old] != string(freshQ[0]) {
		t.Fatalf("republished table holds %d strings", len(again))
	}
}

// TestPublishIsInvisibleToTheRest: whether and when a dictionary was
// published changes nothing about what it is — Hash, Extends, WriteTo,
// Strings and every lookup agree with a dictionary built by the same Interns
// and never published, before the copy-on-write and after it.
func TestPublishIsInvisibleToTheRest(t *testing.T) {
	plain, pub := NewDict(), NewDict()
	same := func(stage string) {
		t.Helper()
		var a, b bytes.Buffer
		if _, err := plain.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if plain.Hash() != pub.Hash() || !bytes.Equal(a.Bytes(), b.Bytes()) ||
			!pub.Extends(plain) || !plain.Extends(pub) || plain.Len() != pub.Len() {
			t.Fatalf("%s: the published dictionary differs from its never-published twin", stage)
		}
		for i, s := range plain.Strings() {
			id, ok := pub.Lookup(" " + strings.ToUpper(s))
			if !ok || id != ID(i) || pub.String(id) != s {
				t.Fatalf("%s: %q resolves to (%d, %v) -> %q", stage, s, id, ok, pub.String(id))
			}
		}
		if _, ok := pub.Lookup("never interned"); ok || pub.String(ID(pub.Len())) != "" {
			t.Fatalf("%s: unknown query or out-of-range ID resolved", stage)
		}
	}
	for _, q := range []string{"o2", "o2 mobile", "smtp"} {
		plain.Intern(q)
		pub.Intern(q)
	}
	same("before Publish")
	base := pub.Publish()
	same("published")
	if id := pub.Intern("O2  Mobile"); id != 1 || &pub.Publish()[0] != &base[0] {
		t.Fatal("interning a known query copied the tables")
	}
	for _, q := range []string{"pop3", "imap"} {
		plain.Intern(q)
		pub.Intern(q)
	}
	same("after the copy-on-write")
	pub.Publish()
	same("published again")
	if len(base) != 3 {
		t.Fatalf("the first snapshot grew to %d strings", len(base))
	}
}
