// Package textutil provides the query-sequence distances of the MVMM mixture
// weighting: the edit distance between a user context and a model's matched
// state.
package textutil

import "repro/internal/query"

// SeqEditDistance returns the Levenshtein distance between two query
// sequences, treating each query ID as an atomic symbol. This is the d(T)
// of the paper's Eq. (4): the distance between the observed user context s
// and the best-matching state s_D of a D-bounded VMM.
func SeqEditDistance(a, b query.Seq) int {
	if a.Equal(b) {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// SuffixDistance returns the number of leading queries of context that are
// not covered by state, assuming state is a suffix of context. When state is
// indeed a suffix this equals the sequence edit distance, but it is O(1).
// It falls back to SeqEditDistance when state is not a suffix.
func SuffixDistance(context, state query.Seq) int {
	if context.HasSuffix(state) {
		return len(context) - len(state)
	}
	return SeqEditDistance(context, state)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
