package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func ngramTrainingSessions() []query.Session {
	// [1,2,3] x10, [1,2,4] x5, [2,3] x8, [7] x3 (singleton: no evidence).
	return []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 10},
		{Queries: query.Seq{1, 2, 4}, Count: 5},
		{Queries: query.Seq{2, 3}, Count: 8},
		{Queries: query.Seq{7}, Count: 3},
	}
}

func TestNGramExactContextPrediction(t *testing.T) {
	m := NewNGram(ngramTrainingSessions(), 8)
	top := m.Predict(query.Seq{1, 2}, 5)
	if len(top) != 2 {
		t.Fatalf("predictions = %v", top)
	}
	if top[0].Query != 3 || top[1].Query != 4 {
		t.Fatalf("ranking = %v, want 3 then 4", top)
	}
	if math.Abs(top[0].Score-10.0/15) > 1e-12 {
		t.Fatalf("score = %v", top[0].Score)
	}
}

func TestNGramUsesFullContextOnly(t *testing.T) {
	m := NewNGram(ngramTrainingSessions(), 8)
	// [9, 1, 2] never occurred verbatim even though its suffix [1,2] did:
	// the naive model sticks to the maximum-length context and fails.
	if m.Covers(query.Seq{9, 1, 2}) {
		t.Fatal("N-gram should not cover an unseen full context")
	}
	if got := m.Predict(query.Seq{9, 1, 2}, 5); got != nil {
		t.Fatalf("Predict on uncovered context = %v", got)
	}
	if p := m.Prob(query.Seq{9, 1, 2}, 3); p != 0 {
		t.Fatalf("Prob on uncovered context = %v", p)
	}
}

func TestNGramPrefixFromSessionStart(t *testing.T) {
	m := NewNGram(ngramTrainingSessions(), 8)
	// Per Sec. V.A.5, training contexts are prefixes from the session
	// start: [2] -> 3 has support 8 from session [2,3], and the [2]
	// context inside [1,2,3] does NOT contribute (that evidence belongs to
	// the full prefix [1,2]).
	if p := m.Prob(query.Seq{2}, 3); math.Abs(p-1.0) > 1e-9 {
		// Followers of prefix [2]: only 3 (x8); vocab smoothing with both
		// outcomes unobserved except 3.
		if p <= 0 {
			t.Fatalf("Prob([2]->3) = %v", p)
		}
	}
	d := m.Followers(query.Seq{2})
	if d.Total() != 8 {
		t.Fatalf("prefix [2] support = %d, want 8 (session-start only)", d.Total())
	}
}

func TestNGramEmptyContextNotCovered(t *testing.T) {
	m := NewNGram(ngramTrainingSessions(), 8)
	if m.Covers(nil) {
		t.Fatal("empty context should not be covered")
	}
}

func TestNGramMaxOrderAndStates(t *testing.T) {
	m := NewNGram(ngramTrainingSessions(), 8)
	if m.MaxOrder() != 3 {
		t.Fatalf("MaxOrder = %d, want 3", m.MaxOrder())
	}
	// States: [1], [1,2], [2] -> 3 distinct prefixes.
	if m.NumStates() != 3 {
		t.Fatalf("NumStates = %d, want 3", m.NumStates())
	}
}

func TestNGramSingletonSessionsIgnored(t *testing.T) {
	m := NewNGram([]query.Session{{Queries: query.Seq{7}, Count: 100}}, 1)
	if m.NumStates() != 0 {
		t.Fatalf("singleton sessions created %d states", m.NumStates())
	}
}

func TestNGramSupportWeighting(t *testing.T) {
	m := NewNGram(ngramTrainingSessions(), 8)
	d := m.Followers(query.Seq{1})
	if d.Total() != 15 || d.Count(2) != 15 {
		t.Fatalf("prefix [1]: total=%d count(2)=%d, want 15/15", d.Total(), d.Count(2))
	}
}

func TestNGramStatesPaperExample(t *testing.T) {
	// Sec. V.A.5: [q1..q5] with frequency 10 yields 4 contexts, each
	// predicting the next query with support 10, in key order.
	m := NewNGram([]query.Session{{Queries: query.Seq{1, 2, 3, 4, 5}, Count: 10}}, 5)
	i := 0
	for ctx, d := range m.States(0) {
		if !ctx.Equal(query.Seq{1, 2, 3, 4, 5}[:i+1]) {
			t.Fatalf("context %d = %v, want the length-%d prefix", i, ctx, i+1)
		}
		if d.Support() != 1 || d.Count(query.ID(i+2)) != 10 {
			t.Fatalf("context %d followers: support %d, count(%d) = %d, want 1 and 10",
				i, d.Support(), i+2, d.Count(query.ID(i+2)))
		}
		i++
	}
	if i != 4 {
		t.Fatalf("contexts = %d, want 4", i)
	}
	for ctx := range m.States(2) {
		if !ctx.Equal(query.Seq{1, 2}) {
			t.Fatalf("States(2) yielded %v, want only [1 2]", ctx)
		}
	}
	for range m.States(0) {
		break // an iterator that ignored yield's false would panic here
	}
}

func TestNGramStatesAggregateAcrossSessions(t *testing.T) {
	m := NewNGram([]query.Session{
		{Queries: query.Seq{1, 2}, Count: 3},
		{Queries: query.Seq{1, 2, 9}, Count: 4},
	}, 3)
	for ctx, d := range m.States(1) {
		if !ctx.Equal(query.Seq{1}) {
			t.Fatalf("length-1 context %v, want only [1]", ctx)
		}
		if d.Count(2) != 7 {
			t.Fatalf("support of [1]->2 = %d, want 7 (3+4)", d.Count(2))
		}
		return
	}
	t.Fatal("missing aggregated context [1]->2")
}

func TestNGramStatesSkipSingletons(t *testing.T) {
	m := NewNGram([]query.Session{{Queries: query.Seq{42}, Count: 5}}, 1)
	for ctx := range m.States(0) {
		t.Fatalf("singleton session produced context %v", ctx)
	}
}

func TestNGramStatesSupportConservation(t *testing.T) {
	// Each session of length l contributes (l-1)·count total context
	// support; the states must conserve it exactly.
	f := func(raw [][4]uint8, counts []uint8) bool {
		if len(raw) > 30 {
			raw = raw[:30]
		}
		var agg []query.Session
		var want uint64
		seen := map[string]bool{}
		for i, r := range raw {
			l := int(r[0])%4 + 1
			s := make(query.Seq, l)
			for j := 0; j < l; j++ {
				s[j] = query.ID(r[j] % 5)
			}
			if seen[s.Key()] {
				continue // aggregated input must have unique sequences
			}
			seen[s.Key()] = true
			c := uint64(1)
			if i < len(counts) {
				c = uint64(counts[i])%9 + 1
			}
			agg = append(agg, query.Session{Queries: s, Count: c})
			if l >= 2 {
				want += uint64(l-1) * c
			}
		}
		var got uint64
		for _, d := range NewNGram(agg, 5).States(0) {
			got += d.Total()
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
