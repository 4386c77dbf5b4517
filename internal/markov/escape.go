package markov

import "repro/internal/query"

// EscapeTable holds the window-occurrence counts behind the paper's context
// escape mechanism (Sec. IV.C.2(b), Eq. 6). For every query-sequence window
// s' observed in training it records how often s' occurred anywhere
// (Σ_q |[q,s']| + |[e,s']|) and how often at the very start of a session
// (|[e,s']|).
type EscapeTable struct {
	occ      map[string]uint64
	startOcc map[string]uint64
	maxLen   int
}

// NewEscapeTable counts windows of length 1..maxLen over aggregated
// sessions. maxLen <= 0 means unbounded (every window).
func NewEscapeTable(sessions []query.Session, maxLen int) *EscapeTable {
	t := &EscapeTable{
		occ:      make(map[string]uint64),
		startOcc: make(map[string]uint64),
		maxLen:   maxLen,
	}
	for _, s := range sessions {
		l := len(s.Queries)
		for j := 0; j < l; j++ {
			limit := l - j
			if maxLen > 0 && limit > maxLen {
				limit = maxLen
			}
			for k := 1; k <= limit; k++ {
				key := s.Queries[j : j+k].Key()
				t.occ[key] += s.Count
				if j == 0 {
					t.startOcc[key] += s.Count
				}
			}
		}
	}
	return t
}

// Occurrences returns how often the window s was observed anywhere.
func (t *EscapeTable) Occurrences(s query.Seq) uint64 { return t.occ[s.Key()] }

// StartOccurrences returns how often s was observed at a session start.
func (t *EscapeTable) StartOccurrences(s query.Seq) uint64 { return t.startOcc[s.Key()] }

// Escape returns P̂(escape | s) for an unobserved context s = [q1, ..., ql]:
// the probability that q1 is "new" and prediction should fall back to the
// suffix [q2, ..., ql]. Per Eq. (6) this is
//
//	|[e, s']| / (Σ_q |[q, s']| + |[e, s']|)
//
// with s' the suffix. Two guards keep the recursion well-defined on sparse
// data: when s' itself was never observed the escape is 1 (no evidence to
// penalise with), and a zero numerator is floored at 1/(occ+1) so a single
// unobserved prefix cannot zero out the whole generative probability — the
// paper's escape exists to *penalise* partial matches, not to veto them.
func (t *EscapeTable) Escape(s query.Seq) float64 {
	suf := s.Suffix()
	if len(suf) == 0 {
		// Escaping from a single unmatched query: an uninformative prior.
		return 0.5
	}
	occ := t.occ[suf.Key()]
	if occ == 0 {
		return 1
	}
	start := t.startOcc[suf.Key()]
	if start == 0 {
		return 1 / float64(occ+1)
	}
	return float64(start) / float64(occ)
}

// escapeKey is Escape over a context pre-encoded in the Seq.Key layout; the
// suffix is the key minus its leading 4 bytes, looked up without allocating.
func (t *EscapeTable) escapeKey(b []byte) float64 {
	suf := b[4:]
	if len(suf) == 0 {
		return 0.5
	}
	occ := t.occ[string(suf)]
	if occ == 0 {
		return 1
	}
	start := t.startOcc[string(suf)]
	if start == 0 {
		return 1 / float64(occ+1)
	}
	return float64(start) / float64(occ)
}

// Len reports the number of distinct windows tracked.
func (t *EscapeTable) Len() int { return len(t.occ) }

// MaxLen reports the window-length bound the table was counted with.
func (t *EscapeTable) MaxLen() int { return t.maxLen }

// ForEachWindow visits every tracked window with its occurrence counts, in
// unspecified order. Used by the compiled-model builder to put the counts
// on the flat trie's nodes.
func (t *EscapeTable) ForEachWindow(f func(key string, occ, startOcc uint64)) {
	for k, o := range t.occ {
		f(k, o, t.startOcc[k])
	}
}
