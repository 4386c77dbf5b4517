// Package markov implements the paper's three sequential prediction models:
// the naive variable-length N-gram (Sec. IV.A), the Variable Memory Markov
// model learned as a Prediction Suffix Tree (Sec. IV.B), and the paper's
// contribution, the Mixture Variable Memory Markov model (Sec. IV.C) with
// its context-escape mechanism and Newton-learned Gaussian mixture weights.
//
// A training run builds one integer suffix trie (pst.go): its nodes are the
// windows of the training sessions, each with its Eq. (6) escape counts, and
// the nodes some query followed also carry their followers and their PST
// inclusion threshold. Every VMM is an ε-view of that trie, the MVMM's
// components included, and the compiled serving model is the same trie
// renumbered. Contexts are trie nodes, not string keys; Seq.Key remains the
// N-gram baseline's state key and the serialized streams' node order. The
// N-gram's states, every session prefix with its followers (Sec. V.A.5),
// are also eval's ground truth (Sec. V.A.6) and Fig. 2's table.
//
// All probabilities and entropies use log base 10, following the paper's
// footnote 2.
package markov

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/query"
)

// Dist is a sparse empirical distribution over next queries: the observed
// counts of each query following some context. Dist is not safe for
// concurrent mutation; the models build distributions fully during training
// and only read them at prediction time.
type Dist struct {
	counts map[query.ID]uint64
	total  uint64
	// ranked memoizes the count-descending order for TopN, built by Freeze
	// after training (prediction workloads call TopN on the same hot
	// distributions millions of times). TopN never writes it, so frozen
	// distributions are safe for concurrent readers.
	ranked []query.ID
}

// NewDist returns an empty distribution.
func NewDist() *Dist {
	return &Dist{counts: make(map[query.ID]uint64)}
}

// Add records n observations of q.
func (d *Dist) Add(q query.ID, n uint64) {
	d.counts[q] += n
	d.total += n
	d.ranked = nil
}

// Total returns the number of observations.
func (d *Dist) Total() uint64 { return d.total }

// Support returns the number of distinct observed queries.
func (d *Dist) Support() int { return len(d.counts) }

// Count returns the raw count of q.
func (d *Dist) Count(q query.ID) uint64 { return d.counts[q] }

// P returns the maximum-likelihood estimate of q's probability, 0 when the
// distribution is empty.
func (d *Dist) P(q query.ID) float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.counts[q]) / float64(d.total)
}

// SmoothedP returns q's probability under the paper's stage-(c) smoothing:
// unobserved queries receive a uniform floor of 1/|Q| before normalisation,
// so observed queries keep P_mle/Z and unobserved ones get (1/|Q|)/Z with
// Z = 1 + u/|Q| where u is the number of unobserved queries. When every
// query is observed this reduces exactly to the MLE, matching the paper's
// toy example where "no unobserved events exist".
func (d *Dist) SmoothedP(q query.ID, vocab int) float64 {
	if d.total == 0 || vocab <= 0 {
		return 0
	}
	u := vocab - len(d.counts)
	if u < 0 {
		u = 0
	}
	z := 1 + float64(u)/float64(vocab)
	if c, ok := d.counts[q]; ok {
		return float64(c) / float64(d.total) / z
	}
	return 1 / float64(vocab) / z
}

// computeRanked returns the count-descending, ID-tie-broken query order.
func (d *Dist) computeRanked() []query.ID {
	r := make([]query.ID, 0, len(d.counts))
	for q := range d.counts {
		r = append(r, q)
	}
	sort.Slice(r, func(i, j int) bool {
		ci, cj := d.counts[r[i]], d.counts[r[j]]
		if ci != cj {
			return ci > cj
		}
		return r[i] < r[j]
	})
	return r
}

// Ranked returns the observed queries in TopN's order, count descending
// then ID: the frozen ranking, which callers must not modify, or else a
// fresh one. Sums over d run in this order, so their bits never vary.
func (d *Dist) Ranked() []query.ID {
	if d.ranked != nil {
		return d.ranked
	}
	return d.computeRanked()
}

// Freeze precomputes the TopN ranking. Models call it once after training so
// concurrent predictions never mutate shared state.
func (d *Dist) Freeze() {
	if d.ranked == nil && len(d.counts) > 0 {
		d.ranked = d.computeRanked()
	}
}

// TopN returns the n most probable observed queries by MLE, ranked by count
// descending with ID tie-break for determinism. On a frozen distribution
// this reads the cached ranking; otherwise it sorts locally without
// mutating the receiver, so TopN is always safe for concurrent callers.
func (d *Dist) TopN(n int) []model.Prediction {
	if n <= 0 || d.total == 0 {
		return nil
	}
	top := d.Ranked()
	if len(top) > n {
		top = top[:n]
	}
	out := make([]model.Prediction, len(top))
	for i, q := range top {
		out[i] = model.Prediction{Query: q, Score: float64(d.counts[q]) / float64(d.total)}
	}
	return out
}

// Entropy returns the prediction entropy -Σ p log10 p, summed in ranked
// order: the measure behind the paper's Fig. 2 (e.g. (0.6, 0.4) -> 0.29).
func (d *Dist) Entropy() float64 {
	if d.total == 0 {
		return 0
	}
	var h float64
	for _, q := range d.Ranked() {
		p := float64(d.counts[q]) / float64(d.total)
		h -= p * math.Log10(p)
	}
	return h
}

// Queries returns the observed queries in deterministic (ascending ID)
// order; used by serialisation.
func (d *Dist) Queries() []query.ID {
	out := make([]query.ID, 0, len(d.counts))
	for q := range d.counts {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
