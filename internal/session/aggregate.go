package session

import "repro/internal/query"

// Aggregate merges identical sessions from different users into
// (sequence, frequency) pairs — Sec. V.A.3. Output is ordered by descending
// frequency with a deterministic tie-break.
func Aggregate(sessions []query.Seq) []query.Session {
	counts := make(map[string]uint64, len(sessions))
	for _, s := range sessions {
		counts[s.Key()]++
	}
	out := make([]query.Session, 0, len(counts))
	for k, c := range counts {
		out = append(out, query.Session{Queries: query.SeqFromKey(k), Count: c})
	}
	query.SortSessions(out)
	return out
}

// Reduce applies the paper's data reduction (Sec. V.A.4): aggregated
// sessions with frequency <= threshold are discarded as rare/erroneous.
// The paper uses threshold 5, which removed ~40% of aggregated sessions and
// retained ~60% of raw sessions. Reduce returns the retained sessions plus
// the retained fraction of raw session mass.
func Reduce(agg []query.Session, threshold uint64) (kept []query.Session, retainedMass float64) {
	var total, retained uint64
	kept = make([]query.Session, 0, len(agg))
	for _, s := range agg {
		total += s.Count
		if s.Count > threshold {
			kept = append(kept, s)
			retained += s.Count
		}
	}
	if total == 0 {
		return kept, 0
	}
	return kept, float64(retained) / float64(total)
}
