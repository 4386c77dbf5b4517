package query

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleSortSessions is SortSessions as it was before CompareSessions: the
// count, then the two sequences' encoded keys, built per comparison.
func oracleSortSessions(ss []Session) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Count != ss[j].Count {
			return ss[i].Count > ss[j].Count
		}
		return ss[i].Queries.Key() < ss[j].Queries.Key()
	})
}

// TestSortSessionsMatchesKeyOrder holds SortSessions to the key-string
// comparator on random distinct sessions built to collide: few counts, IDs
// that differ only in one byte of their big-endian encoding, and sequences
// that are prefixes of each other (the empty one included).
func TestSortSessionsMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []ID{0, 1, 2, 255, 256, 257, 1 << 16, 1<<16 + 1, 1 << 24, 1<<32 - 1}
	for trial := 0; trial < 300; trial++ {
		seen := map[string]bool{}
		var ss []Session
		for len(ss) < 1+rng.Intn(200) {
			var q Seq
			if n := len(ss); n > 0 && rng.Intn(3) == 0 {
				q = ss[rng.Intn(n)].Queries.Clone() // extend or cut a sibling
				if len(q) > 0 && rng.Intn(2) == 0 {
					q = q[:rng.Intn(len(q))]
				}
			}
			for m := rng.Intn(4); m > 0; m-- {
				q = append(q, ids[rng.Intn(len(ids))])
			}
			if seen[q.Key()] {
				continue // aggregated sessions never repeat a sequence
			}
			seen[q.Key()] = true
			ss = append(ss, Session{Queries: q, Count: uint64(1 + rng.Intn(3))})
		}
		rng.Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
		want := slices.Clone(ss)
		oracleSortSessions(want)
		SortSessions(ss)
		for i := range ss {
			if ss[i].Count != want[i].Count || !ss[i].Queries.Equal(want[i].Queries) {
				t.Fatalf("trial %d: position %d = %v, key order has %v", trial, i, ss[i], want[i])
			}
		}
		if !slices.IsSortedFunc(want, CompareSessions) {
			t.Fatalf("trial %d: CompareSessions disagrees with key order", trial)
		}
	}
}
