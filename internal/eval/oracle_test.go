package eval_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/markov"
	"repro/internal/query"
)

// The oracles below are the string-keyed ground truth and context entropy
// that eval.GroundTruth and eval.ContextEntropy replaced, kept verbatim but
// for their names: the N-gram-backed versions must answer every question
// the way they did.

// oracleGroundTruth maps a test context prefix to the ranked list of
// queries that actually followed it in the test window — Sec. V.A.6. Rank 0
// is the most frequent follower; at most TopN entries are kept.
type oracleGroundTruth struct {
	TopN    int
	follows map[string][]query.ID
}

// buildOracleGroundTruth constructs ground truth from aggregated test
// sessions. For every prefix observed in the test data, followers are ranked
// by their aggregated frequency (descending, ties broken by ID for
// determinism) and truncated to topN (the paper uses n = 5).
func buildOracleGroundTruth(testSessions []query.Session, topN int) *oracleGroundTruth {
	if topN <= 0 {
		topN = 5
	}
	freq := make(map[string]map[query.ID]uint64)
	for _, s := range testSessions {
		for i := 1; i < len(s.Queries); i++ {
			k := s.Queries[:i].Key()
			m := freq[k]
			if m == nil {
				m = make(map[query.ID]uint64)
				freq[k] = m
			}
			m[s.Queries[i]] += s.Count
		}
	}
	gt := &oracleGroundTruth{TopN: topN, follows: make(map[string][]query.ID, len(freq))}
	for k, m := range freq {
		type qc struct {
			q query.ID
			c uint64
		}
		list := make([]qc, 0, len(m))
		for q, c := range m {
			list = append(list, qc{q, c})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].c != list[j].c {
				return list[i].c > list[j].c
			}
			return list[i].q < list[j].q
		})
		if len(list) > topN {
			list = list[:topN]
		}
		ids := make([]query.ID, len(list))
		for i, e := range list {
			ids[i] = e.q
		}
		gt.follows[k] = ids
	}
	return gt
}

// Lookup returns the ranked ground-truth followers for a prefix, or nil when
// the prefix never occurred in the test window.
func (gt *oracleGroundTruth) Lookup(prefix query.Seq) []query.ID {
	return gt.follows[prefix.Key()]
}

// Rating returns the paper's NDCG rating of query q in the context prefix:
// 5 for the top ground-truth follower, 4 for the second, ... 1 for the
// fifth, and 0 beyond the top list or when unseen.
func (gt *oracleGroundTruth) Rating(prefix query.Seq, q query.ID) int {
	for i, g := range gt.follows[prefix.Key()] {
		if g == q {
			r := gt.TopN - i
			if r < 0 {
				return 0
			}
			return r
		}
	}
	return 0
}

// Contexts returns every ground-truth prefix, optionally filtered to a given
// prefix length (0 = all), in deterministic order.
func (gt *oracleGroundTruth) Contexts(length int) []query.Seq {
	keys := make([]string, 0, len(gt.follows))
	for k := range gt.follows {
		if length > 0 && len(k) != 4*length {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]query.Seq, len(keys))
	for i, k := range keys {
		out[i] = query.SeqFromKey(k)
	}
	return out
}

// Len reports the number of distinct ground-truth prefixes.
func (gt *oracleGroundTruth) Len() int { return len(gt.follows) }

// oracleContextEntropy computes the Fig. 2 curve: the average prediction
// entropy of the next query given contexts of each length 0..maxLen. Length
// 0 is the entropy of the unconditional next-query distribution; for length
// L >= 1 it is the frequency-weighted mean entropy of the follower
// distribution of each distinct length-L context (session prefixes, per the
// Sec. V.A.5 context derivation). Entropy is in log base 10.
func oracleContextEntropy(sessions []query.Session, maxLen int) []float64 {
	out := make([]float64, maxLen+1)

	// Length 0: one distribution over all predicted queries.
	marginal := markov.NewDist()
	for _, s := range sessions {
		for i := 1; i < len(s.Queries); i++ {
			marginal.Add(s.Queries[i], s.Count)
		}
	}
	out[0] = marginal.Entropy()

	for l := 1; l <= maxLen; l++ {
		dists := make(map[string]*markov.Dist)
		for _, s := range sessions {
			if len(s.Queries) <= l {
				continue
			}
			k := s.Queries[:l].Key()
			d := dists[k]
			if d == nil {
				d = markov.NewDist()
				dists[k] = d
			}
			d.Add(s.Queries[l], s.Count)
		}
		var sum float64
		var mass uint64
		for _, d := range dists {
			sum += float64(d.Total()) * d.Entropy()
			mass += d.Total()
		}
		if mass > 0 {
			out[l] = sum / float64(mass)
		}
	}
	return out
}

var (
	corpusOnce sync.Once
	corpus     *experiments.Corpus
	corpusErr  error
)

// smallCorpus builds the experiments' small corpus once for every test here.
func smallCorpus(t *testing.T) *experiments.Corpus {
	t.Helper()
	corpusOnce.Do(func() { corpus, corpusErr = experiments.BuildCorpus(experiments.SmallCorpusConfig()) })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

// groundTruthDiff returns a description of the first question on which the
// N-gram ground truth and the oracle answer differently, or "".
func groundTruthDiff(sessions []query.Session) string {
	got, want := eval.BuildGroundTruth(sessions, 5), buildOracleGroundTruth(sessions, 5)
	if got.Len() != want.Len() {
		return "Len differs"
	}
	for l := 0; l <= 4; l++ {
		if !slices.EqualFunc(got.Contexts(l), want.Contexts(l), query.Seq.Equal) {
			return "Contexts differ"
		}
	}
	absent := query.ID(math.MaxUint32)
	for _, ctx := range want.Contexts(0) {
		if !slices.Equal(got.Lookup(ctx), want.Lookup(ctx)) {
			return fmt.Sprintf("Lookup(%v) differs", ctx)
		}
		if got.Rating(ctx, absent) != want.Rating(ctx, absent) {
			return "Rating of an absent query differs"
		}
	}
	// Every follower of every prefix, the ones past the top five included.
	for _, s := range sessions {
		for i := 1; i < len(s.Queries); i++ {
			ctx, q := s.Queries[:i], s.Queries[i]
			if got.Rating(ctx, q) != want.Rating(ctx, q) {
				return fmt.Sprintf("Rating(%v, %d) differs", ctx, q)
			}
		}
	}
	if got.Lookup(query.Seq{absent}) != nil || got.Lookup(nil) != nil {
		return "Lookup of an unseen prefix is not nil"
	}
	return ""
}

func entropyDiff(sessions []query.Session, maxLen int) string {
	got, want := eval.ContextEntropy(sessions, maxLen), oracleContextEntropy(sessions, maxLen)
	for l := range want {
		if math.Abs(got[l]-want[l]) > 1e-12 {
			return fmt.Sprintf("length %d: %v, oracle %v", l, got[l], want[l])
		}
	}
	return ""
}

func TestGroundTruthMatchesOracleOnSmallCorpus(t *testing.T) {
	c := smallCorpus(t)
	for name, sessions := range map[string][]query.Session{"TestAgg": c.TestAgg, "TestAggFull": c.TestAggFull} {
		if diff := groundTruthDiff(sessions); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

func TestContextEntropyMatchesOracleOnSmallCorpus(t *testing.T) {
	c := smallCorpus(t)
	for name, sessions := range map[string][]query.Session{
		"TrainAggFull": c.TrainAggFull, "TestAgg": c.TestAgg, "TestAggFull": c.TestAggFull,
	} {
		if diff := entropyDiff(sessions, 4); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// quickSessions turns generated bytes into aggregated sessions: unique
// sequences of 1–4 queries over 8 IDs, so prefixes have more than five
// followers, with counts 1–9, so followers tie.
func quickSessions(raw [][4]uint8, counts []uint8) []query.Session {
	var agg []query.Session
	seen := map[string]bool{}
	for i, r := range raw {
		s := make(query.Seq, int(r[0])%4+1)
		for j := range s {
			s[j] = query.ID(r[(j+1)%4] % 8)
		}
		if seen[s.Key()] {
			continue
		}
		seen[s.Key()] = true
		c := uint64(1)
		if i < len(counts) {
			c = uint64(counts[i])%9 + 1
		}
		agg = append(agg, query.Session{Queries: s, Count: c})
	}
	return agg
}

func TestGroundTruthMatchesOracleQuick(t *testing.T) {
	f := func(raw [][4]uint8, counts []uint8) bool {
		sessions := quickSessions(raw, counts)
		if diff := groundTruthDiff(sessions); diff != "" {
			t.Log(diff)
			return false
		}
		if diff := entropyDiff(sessions, 4); diff != "" {
			t.Log(diff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestContextEntropyDeterministic(t *testing.T) {
	// Fig. 2 sums entropies over thousands of contexts, each over its
	// followers. Summed in map order, the same corpus gave other bits from
	// call to call; summed in key and rank order it gives one pattern.
	c := smallCorpus(t)
	want := eval.ContextEntropy(c.TrainAggFull, 4)
	for i := 0; i < 19; i++ {
		got := eval.ContextEntropy(c.TrainAggFull, 4)
		for l := range want {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
				t.Fatalf("call %d: length %d entropy %v, first call %v", i+2, l, got[l], want[l])
			}
		}
	}
}
