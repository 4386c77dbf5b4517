package hmm

import (
	"sort"

	"repro/internal/compiled"
	"repro/internal/model"
	"repro/internal/query"
)

// predictScratch is the per-call working set of PredictInto: forward-pass
// vectors, the candidate pool and its dedup index. Instances are recycled
// through the model's scratch pool, so PredictInto performs no allocations
// in steady state (the map reuses its buckets across calls once grown).
type predictScratch struct {
	alpha, tmp, next []float64
	cand             []model.Prediction
	seen             map[query.ID]int32
}

// Len/Less/Swap sort the candidate pool by descending score, ascending ID —
// the same order Predict uses. Implementing sort.Interface on the pooled
// scratch keeps sort.Sort allocation-free (the interface holds a pointer).
func (s *predictScratch) Len() int      { return len(s.cand) }
func (s *predictScratch) Swap(i, j int) { s.cand[i], s.cand[j] = s.cand[j], s.cand[i] }
func (s *predictScratch) Less(i, j int) bool {
	if s.cand[i].Score != s.cand[j].Score {
		return s.cand[i].Score > s.cand[j].Score
	}
	return s.cand[i].Query < s.cand[j].Query
}

func (m *Model) getScratch() *predictScratch {
	if s, ok := m.scratch.Get().(*predictScratch); ok {
		s.cand = s.cand[:0]
		clear(s.seen)
		return s
	}
	return &predictScratch{
		alpha: make([]float64, m.k),
		tmp:   make([]float64, m.k),
		next:  make([]float64, m.k),
		cand:  make([]model.Prediction, 0, 256),
		seen:  make(map[query.ID]int32, 256),
	}
}

// nextStateDistInto is nextStateDist computed into pooled scratch: the scaled
// forward pass over ctx followed by one transition step, leaving
// P(z_{t+1} | ctx) in s.next.
func (m *Model) nextStateDistInto(s *predictScratch, ctx query.Seq) {
	alpha, tmp := s.alpha, s.tmp
	var sum float64
	for i := 0; i < m.k; i++ {
		alpha[i] = m.pi[i] * m.emitProb(i, ctx[0])
		sum += alpha[i]
	}
	norm(alpha, sum)
	for t := 1; t < len(ctx); t++ {
		sum = 0
		for j := 0; j < m.k; j++ {
			var a float64
			for i := 0; i < m.k; i++ {
				a += alpha[i] * m.trans[i][j]
			}
			tmp[j] = a * m.emitProb(j, ctx[t])
			sum += tmp[j]
		}
		copy(alpha, tmp)
		norm(alpha, sum)
	}
	for j := 0; j < m.k; j++ {
		var p float64
		for i := 0; i < m.k; i++ {
			p += alpha[i] * m.trans[i][j]
		}
		s.next[j] = p
	}
}

// PredictInto implements compiled.Predictor: the exact marginal ranking of
// Predict — pool each probable next state's top emissions, score by
// Σ_z P(z|ctx)·b_z(q) — computed entirely in pooled scratch and appended to
// dst. With a recycled dst this is the zero-allocation HMM serving path
// (gated by BenchmarkPredictHMM).
func (m *Model) PredictInto(dst []model.Prediction, ctx query.Seq, topN int) []model.Prediction {
	if topN <= 0 || !m.Covers(ctx) {
		return dst
	}
	s := m.getScratch()
	m.nextStateDistInto(s, ctx)
	for i, p := range s.next {
		if p < minStateWeight {
			continue
		}
		limit := 4 * topN
		if limit > len(m.topEmit[i]) {
			limit = len(m.topEmit[i])
		}
		for _, q := range m.topEmit[i][:limit] {
			if _, ok := s.seen[q]; ok {
				continue
			}
			s.seen[q] = int32(len(s.cand))
			var score float64
			for j, w := range s.next {
				score += w * m.emit[j][q]
			}
			s.cand = append(s.cand, model.Prediction{Query: q, Score: score})
		}
	}
	sort.Sort(s)
	n := topN
	if n > len(s.cand) {
		n = len(s.cand)
	}
	dst = append(dst, s.cand[:n]...)
	m.scratch.Put(s)
	return dst
}

// minStateWeight prunes the candidate pool to states carrying at least this
// much posterior mass (matching Predict's threshold).
const minStateWeight = 0.02

// Shape implements compiled.Predictor.
func (m *Model) Shape() compiled.Shape {
	return compiled.Shape{
		Family:    compiled.FamilyHMM,
		Label:     m.Name(),
		Vocab:     m.vocab,
		States:    m.k,
		Depth:     0, // the forward pass consumes the whole context
		ZeroAlloc: true,
	}
}

var _ compiled.Predictor = (*Model)(nil)
