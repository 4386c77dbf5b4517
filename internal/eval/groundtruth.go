package eval

import (
	"repro/internal/markov"
	"repro/internal/query"
)

// GroundTruth maps a test context prefix to the ranked list of queries that
// actually followed it in the test window — Sec. V.A.6. Rank 0 is the most
// frequent follower; at most TopN entries are read. The table is the test
// window's N-gram: its states are exactly the window's prefixes with their
// followers' aggregated frequencies.
type GroundTruth struct {
	TopN int
	ng   *markov.NGram
}

// BuildGroundTruth constructs ground truth from aggregated test sessions.
// For every prefix observed in the test data, followers are ranked by their
// aggregated frequency (descending, ties broken by ID for determinism) and
// truncated to topN (the paper uses n = 5).
func BuildGroundTruth(testSessions []query.Session, topN int) *GroundTruth {
	if topN <= 0 {
		topN = 5
	}
	return &GroundTruth{TopN: topN, ng: markov.NewNGram(testSessions, 0)}
}

// Lookup returns the ranked ground-truth followers for a prefix, or nil when
// the prefix never occurred in the test window. The slice's capacity is its
// length, so appending to it never writes into the shared ranking.
func (gt *GroundTruth) Lookup(prefix query.Seq) []query.ID {
	d := gt.ng.Followers(prefix)
	if d == nil {
		return nil
	}
	r := d.Ranked()
	n := min(len(r), gt.TopN)
	return r[:n:n]
}

// Rating returns the paper's NDCG rating of query q in the context prefix:
// 5 for the top ground-truth follower, 4 for the second, ... 1 for the
// fifth, and 0 beyond the top list or when unseen.
func (gt *GroundTruth) Rating(prefix query.Seq, q query.ID) int {
	for i, g := range gt.Lookup(prefix) {
		if g == q {
			return gt.TopN - i
		}
	}
	return 0
}

// Contexts returns every ground-truth prefix, optionally filtered to a given
// prefix length (0 = all), in deterministic order.
func (gt *GroundTruth) Contexts(length int) []query.Seq {
	var out []query.Seq
	for ctx := range gt.ng.States(length) {
		out = append(out, ctx)
	}
	return out
}

// Len reports the number of distinct ground-truth prefixes.
func (gt *GroundTruth) Len() int { return gt.ng.NumStates() }
