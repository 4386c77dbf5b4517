// Package pairwise implements the paper's two baseline recommenders
// (Sec. V.B): Adjacency, which ranks queries that immediately follow the
// user's last query in training sessions (Jones et al.), and Co-occurrence,
// which ranks queries co-occurring with the last query anywhere in the same
// session regardless of order (Huang et al.). Both look at a single
// preceding query only — the limitation the sequential models address.
package pairwise

import (
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
)

// Adjacency recommends the queries most frequently observed immediately
// after the context's last query. It is exactly the 2-gram degeneration of
// the variable-length N-gram model (Sec. IV.A).
type Adjacency struct {
	follow map[query.ID]*markov.Dist
	vocab  int
}

// NewAdjacency trains the Adjacency baseline from aggregated sessions.
func NewAdjacency(sessions []query.Session, vocab int) *Adjacency {
	m := &Adjacency{follow: make(map[query.ID]*markov.Dist), vocab: vocab}
	for _, s := range sessions {
		for i := 1; i < len(s.Queries); i++ {
			prev := s.Queries[i-1]
			d := m.follow[prev]
			if d == nil {
				d = markov.NewDist()
				m.follow[prev] = d
			}
			d.Add(s.Queries[i], s.Count)
		}
	}
	freeze(m.follow)
	return m
}

// freeze precomputes rankings so predictions are safe for concurrent use.
func freeze(m map[query.ID]*markov.Dist) {
	for _, d := range m {
		d.Freeze()
	}
}

// Name implements model.Predictor. "Adjacency" is the stable display name
// (table rows).
func (m *Adjacency) Name() string { return "Adjacency" }

func (m *Adjacency) dist(ctx query.Seq) *markov.Dist {
	if len(ctx) == 0 {
		return nil
	}
	return m.follow[ctx.Last()]
}

// Predict implements model.Predictor using only the last query of ctx.
func (m *Adjacency) Predict(ctx query.Seq, topN int) []model.Prediction {
	d := m.dist(ctx)
	if d == nil {
		return nil
	}
	return d.TopN(topN)
}

// Prob implements model.Predictor.
func (m *Adjacency) Prob(ctx query.Seq, q query.ID) float64 {
	d := m.dist(ctx)
	if d == nil {
		return 0
	}
	return d.SmoothedP(q, m.vocab)
}

// Covers implements model.Predictor.
func (m *Adjacency) Covers(ctx query.Seq) bool { return m.dist(ctx) != nil }

// NumStates returns the number of queries with follower evidence.
func (m *Adjacency) NumStates() int { return len(m.follow) }

// Co-occurrence ranks queries by how often they appear in the same session
// as the context's last query, in any order and at any distance. Its
// coverage is the highest of all methods (a query needs only to appear in
// some multi-query session) but it ignores sequence information entirely.
type Cooccurrence struct {
	with  map[query.ID]*markov.Dist
	vocab int
}

// NewCooccurrence trains the Co-occurrence baseline. For every unordered
// pair of distinct positions (i, j) in a session, query at i is recorded as
// co-occurring with query at j and vice versa, weighted by the session's
// aggregated frequency.
func NewCooccurrence(sessions []query.Session, vocab int) *Cooccurrence {
	m := &Cooccurrence{with: make(map[query.ID]*markov.Dist), vocab: vocab}
	for _, s := range sessions {
		qs := s.Queries
		for i := 0; i < len(qs); i++ {
			for j := 0; j < len(qs); j++ {
				if i == j {
					continue
				}
				d := m.with[qs[i]]
				if d == nil {
					d = markov.NewDist()
					m.with[qs[i]] = d
				}
				d.Add(qs[j], s.Count)
			}
		}
	}
	freeze(m.with)
	return m
}

// Name implements model.Predictor. "Co-occurrence" is the stable display
// name (table rows).
func (m *Cooccurrence) Name() string { return "Co-occurrence" }

func (m *Cooccurrence) dist(ctx query.Seq) *markov.Dist {
	if len(ctx) == 0 {
		return nil
	}
	return m.with[ctx.Last()]
}

// Predict implements model.Predictor.
func (m *Cooccurrence) Predict(ctx query.Seq, topN int) []model.Prediction {
	d := m.dist(ctx)
	if d == nil {
		return nil
	}
	return d.TopN(topN)
}

// Prob implements model.Predictor.
func (m *Cooccurrence) Prob(ctx query.Seq, q query.ID) float64 {
	d := m.dist(ctx)
	if d == nil {
		return 0
	}
	return d.SmoothedP(q, m.vocab)
}

// Covers implements model.Predictor.
func (m *Cooccurrence) Covers(ctx query.Seq) bool { return m.dist(ctx) != nil }

// NumStates returns the number of queries with co-occurrence evidence.
func (m *Cooccurrence) NumStates() int { return len(m.with) }

var (
	_ model.Predictor = (*Adjacency)(nil)
	_ model.Predictor = (*Cooccurrence)(nil)
)
