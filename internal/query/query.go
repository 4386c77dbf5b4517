// Package query defines the fundamental vocabulary types used throughout the
// reproduction: interned query identifiers, query sequences, and search
// sessions. All prediction models operate on compact integer IDs rather than
// raw strings; the Dict type provides the bidirectional mapping.
package query

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ID is a compact interned identifier for a unique query string.
// IDs are dense: the first interned query receives ID 0, the next 1, and so
// on, which lets downstream models use IDs as slice indices.
type ID uint32

// Invalid is returned by lookups that fail to resolve a query string.
const Invalid ID = ^ID(0)

// Dict is a bidirectional, concurrency-safe mapping between query strings and
// dense IDs. The zero value is not usable; construct with NewDict.
//
// A dictionary that is being built is read and written under mu. Publish
// turns the tables into an immutable snapshot, which Lookup, LookupBytes,
// String and Len then read without taking mu — the state a served dictionary
// stays in for good, since nothing interns into it after training. Interning
// a new string into a published dictionary still works: it copies the tables
// first and drops the snapshot, so a reader that is holding the snapshot keeps
// seeing the tables exactly as they were published.
type Dict struct {
	mu   sync.RWMutex
	ids  map[string]ID
	strs []string
	pub  atomic.Pointer[tables] // non-nil: ids and strs are shared with it and must not be written
}

// tables is a published, immutable view of a dictionary.
type tables struct {
	ids  map[string]ID
	strs []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]ID)}
}

// Intern returns the ID for q, assigning a fresh one if q has never been
// seen. Query strings are normalised (lower-cased, whitespace-collapsed)
// before interning so that "Kidney  Stones " and "kidney stones" share an ID,
// mirroring standard query-log canonicalisation.
func (d *Dict) Intern(q string) ID {
	q = Normalize(q)
	if id, ok := d.lookup(q); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[q]; ok {
		return id
	}
	if d.pub.Load() != nil {
		// Copy on write: lock-free readers own the published tables.
		d.ids, d.strs = maps.Clone(d.ids), slices.Clone(d.strs)
		d.pub.Store(nil)
	}
	id := ID(len(d.strs))
	d.ids[q] = id
	d.strs = append(d.strs, q)
	return id
}

// Publish makes the dictionary's current tables an immutable snapshot that
// readers use without locking, and returns the snapshot's string table,
// indexed by ID, which the caller must not modify. Serving code calls it once
// the vocabulary is final; see Dict for what a later Intern does.
func (d *Dict) Publish() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.pub.Load()
	if t == nil {
		t = &tables{ids: d.ids, strs: d.strs}
		d.pub.Store(t)
	}
	return t.strs
}

// lookup resolves an already normalised query string.
func (d *Dict) lookup(q string) (ID, bool) {
	if t := d.pub.Load(); t != nil {
		id, ok := t.ids[q]
		return id, ok
	}
	d.mu.RLock()
	id, ok := d.ids[q]
	d.mu.RUnlock()
	return id, ok
}

// Lookup resolves a query string to its ID without interning.
// The second return value reports whether the query was known.
func (d *Dict) Lookup(q string) (ID, bool) {
	return d.lookup(Normalize(q))
}

// LookupBytes is Lookup for a query held in a byte slice. When the bytes are
// already in normalised form (lower-case ASCII, single internal spaces — the
// common case for real query traffic) the map is probed directly with Go's
// allocation-free []byte-key lookup; anything else takes the string path so
// normalisation semantics match Lookup exactly.
func (d *Dict) LookupBytes(q []byte) (ID, bool) {
	if !normalizedASCII(q) {
		return d.Lookup(string(q))
	}
	if t := d.pub.Load(); t != nil {
		id, ok := t.ids[string(q)] // conversion in the index expression: no alloc
		return id, ok
	}
	d.mu.RLock()
	id, ok := d.ids[string(q)]
	d.mu.RUnlock()
	return id, ok
}

// normalizedASCII reports whether Normalize would return q unchanged without
// needing Unicode case mapping: pure ASCII with no upper-case letters, no
// non-space whitespace (\t \n \v \f \r — everything TrimSpace and Fields
// treat as space), and no leading/trailing/doubled spaces. Non-ASCII bytes
// fail the test (they could be part of an upper-case rune).
func normalizedASCII(q []byte) bool {
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 0x80, c >= '\t' && c <= '\r':
			return false
		case c == ' ':
			if i == 0 || i == len(q)-1 || q[i-1] == ' ' {
				return false
			}
		}
	}
	return true
}

// Hash returns a stable fingerprint of the dictionary's ID assignment: an
// FNV-1a hash over the interned strings in ID order, length-framed so
// ("ab","c") and ("a","bc") differ. Two dictionaries assign identical IDs to
// identical strings iff their hashes match (modulo hash collisions), which is
// what the serving layer's reload compatibility check and the fleet router's
// shared-context interning rely on.
func (d *Dict) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range d.table() {
		n := len(s)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(n >> shift))
			h *= prime64
		}
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	return h
}

// Extends reports whether d is an ID-preserving extension of base: every ID
// interned in base maps to the same string in d (base's string table is a
// prefix of d's). Interned contexts, ID-keyed cache keys and sticky routing
// hashes built against base therefore remain valid against d — the notion of
// "dictionary compatibility" the hot-reload path enforces. Every dictionary
// extends itself and the empty dictionary.
func (d *Dict) Extends(base *Dict) bool {
	if d == base {
		return true
	}
	prefix, strs := base.table(), d.table()
	return len(strs) >= len(prefix) && slices.Equal(strs[:len(prefix)], prefix)
}

// String returns the query string for id, or "" if id is out of range.
func (d *Dict) String(id ID) string {
	strs := d.table()
	if int(id) >= len(strs) {
		return ""
	}
	return strs[id]
}

// Len reports the number of unique queries interned so far (|Q|).
func (d *Dict) Len() int { return len(d.table()) }

// table returns the string table as of now: the published one, or the
// current extent of the one under construction (whose elements below that
// length are never rewritten, only appended after).
func (d *Dict) table() []string {
	if t := d.pub.Load(); t != nil {
		return t.strs
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strs
}

// Strings returns a copy of all interned query strings in ID order.
func (d *Dict) Strings() []string { return slices.Clone(d.table()) }

// Normalize canonicalises a raw query string: lower-case, trim, and collapse
// internal whitespace runs to single spaces.
func Normalize(q string) string {
	q = strings.ToLower(strings.TrimSpace(q))
	if !strings.ContainsAny(q, "\t\n\r") && !strings.Contains(q, "  ") {
		return q
	}
	return strings.Join(strings.Fields(q), " ")
}

// Seq is a sequence of queries — the paper's s = [q1, ..., ql].
// A nil or empty Seq is the empty sequence e.
type Seq []ID

// Empty reports whether s is the empty sequence e.
func (s Seq) Empty() bool { return len(s) == 0 }

// Len returns |s|, the number of queries in the sequence.
func (s Seq) Len() int { return len(s) }

// Last returns the final query of the sequence.
// It panics when called on the empty sequence.
func (s Seq) Last() ID {
	if len(s) == 0 {
		panic("query: Last on empty sequence")
	}
	return s[len(s)-1]
}

// Suffix returns the suffix of s obtained by dropping the first query,
// i.e. [q2, ..., ql]. The suffix of a 1-element or empty sequence is e.
func (s Seq) Suffix() Seq {
	if len(s) <= 1 {
		return nil
	}
	return s[1:]
}

// Tail returns the longest suffix of s with length at most n.
func (s Seq) Tail(n int) Seq {
	if n <= 0 {
		return nil
	}
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// HasSuffix reports whether suf is a suffix of s.
func (s Seq) HasSuffix(suf Seq) bool {
	if len(suf) > len(s) {
		return false
	}
	off := len(s) - len(suf)
	for i, q := range suf {
		if s[off+i] != q {
			return false
		}
	}
	return true
}

// Equal reports element-wise equality of two sequences.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a fresh copy of s that does not alias the receiver.
func (s Seq) Clone() Seq {
	if s == nil {
		return nil
	}
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Append returns a new sequence equal to s with q appended. The receiver is
// never mutated, making Append safe for deriving contexts from shared slices.
func (s Seq) Append(q ID) Seq {
	out := make(Seq, len(s)+1)
	copy(out, s)
	out[len(s)] = q
	return out
}

// Key encodes the sequence into a compact string usable as a map key.
// The encoding is 4 bytes per ID, big-endian, so distinct sequences always
// map to distinct keys and keys sort in sequence order.
func (s Seq) Key() string {
	if len(s) == 0 {
		return ""
	}
	b := make([]byte, 4*len(s))
	for i, q := range s {
		b[4*i] = byte(q >> 24)
		b[4*i+1] = byte(q >> 16)
		b[4*i+2] = byte(q >> 8)
		b[4*i+3] = byte(q)
	}
	return string(b)
}

// SeqFromKey decodes a key produced by Seq.Key back into a sequence.
// It returns nil for the empty key.
func SeqFromKey(k string) Seq {
	if len(k) == 0 {
		return nil
	}
	if len(k)%4 != 0 {
		panic(fmt.Sprintf("query: malformed sequence key of length %d", len(k)))
	}
	s := make(Seq, len(k)/4)
	for i := range s {
		s[i] = ID(k[4*i])<<24 | ID(k[4*i+1])<<16 | ID(k[4*i+2])<<8 | ID(k[4*i+3])
	}
	return s
}

// Format renders the sequence as human-readable text using dict, joining
// queries with the paper's " => " arrow.
func (s Seq) Format(dict *Dict) string {
	if len(s) == 0 {
		return "<empty>"
	}
	parts := make([]string, len(s))
	for i, q := range s {
		parts[i] = dict.String(q)
	}
	return strings.Join(parts, " => ")
}

// Session is one segmented search session: an ordered query sequence plus the
// number of times the identical sequence was observed (after aggregation).
type Session struct {
	Queries Seq
	Count   uint64
}

// SortSessions orders sessions by descending count, breaking ties by the
// lexicographic order of their encoded keys so output is deterministic.
func SortSessions(ss []Session) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Count != ss[j].Count {
			return ss[i].Count > ss[j].Count
		}
		return ss[i].Queries.Key() < ss[j].Queries.Key()
	})
}
