package markov

import (
	"iter"

	"repro/internal/model"
	"repro/internal/query"
)

// NGram is the paper's naive variable-length N-gram model (Sec. IV.A):
// a series of fixed-order MLE models, one per context length, that always
// uses the *full* observed context [q1, ..., qi-1] — no back-off. A context
// not seen verbatim in training is simply not covered (the model's Table VI
// reason 4), which is what collapses its coverage beyond length 3 (Fig. 11).
type NGram struct {
	// states maps an encoded full-prefix context to its follower
	// distribution. Contexts of different lengths live in the same map;
	// the key encodes the length implicitly (4 bytes per query).
	states map[string]*Dist
	vocab  int
	maxN   int
}

// NewNGram trains the variable-length N-gram family from aggregated training
// sessions, using the Sec. V.A.5 context derivation: each session prefix
// [q1..qi-1] contributes its aggregated frequency as support for predicting
// qi. vocab is |Q| for smoothing.
func NewNGram(sessions []query.Session, vocab int) *NGram {
	m := &NGram{states: make(map[string]*Dist), vocab: vocab}
	for _, s := range sessions {
		for i := 1; i < len(s.Queries); i++ {
			k := s.Queries[:i].Key()
			d := m.states[k]
			if d == nil {
				d = NewDist()
				m.states[k] = d
			}
			d.Add(s.Queries[i], s.Count)
			if i+1 > m.maxN {
				m.maxN = i + 1
			}
		}
	}
	m.freeze()
	return m
}

// freeze precomputes rankings for concurrent prediction.
func (m *NGram) freeze() {
	for _, d := range m.states {
		d.Freeze()
	}
}

// Name implements model.Predictor.
func (m *NGram) Name() string { return "N-gram" }

// MaxOrder returns the largest trained N (context length + 1).
func (m *NGram) MaxOrder() int { return m.maxN }

// NumStates returns the number of trained contexts across all orders.
func (m *NGram) NumStates() int { return len(m.states) }

// Followers returns the frozen, shared follower distribution of exactly ctx
// (callers must not Add to it), or nil when ctx is no training prefix.
func (m *NGram) Followers(ctx query.Seq) *Dist {
	if len(ctx) == 0 {
		return nil
	}
	return m.states[ctx.Key()]
}

// States yields the trained contexts of one length (0 = every length) with
// their followers, in key order: for one length, by query ID, first query
// first. eval reads its ground truth and Fig. 2's table through it.
func (m *NGram) States(length int) iter.Seq2[query.Seq, *Dist] {
	return func(yield func(query.Seq, *Dist) bool) {
		for _, k := range sortedKeys(m.states) {
			if length > 0 && len(k) != 4*length {
				continue
			}
			if !yield(query.SeqFromKey(k), m.states[k]) {
				return
			}
		}
	}
}

// Predict implements model.Predictor. Only an exact match of the full
// context yields predictions.
func (m *NGram) Predict(ctx query.Seq, topN int) []model.Prediction {
	d := m.Followers(ctx)
	if d == nil {
		return nil
	}
	return d.TopN(topN)
}

// Prob implements model.Predictor with the paper's 1/|Q| smoothing applied
// within covered contexts.
func (m *NGram) Prob(ctx query.Seq, q query.ID) float64 {
	d := m.Followers(ctx)
	if d == nil {
		return 0
	}
	return d.SmoothedP(q, m.vocab)
}

// Covers implements model.Predictor.
func (m *NGram) Covers(ctx query.Seq) bool {
	return m.Followers(ctx) != nil
}

var _ model.Predictor = (*NGram)(nil)
