package compiled

import (
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/query"
)

// loadedEveryWay returns c as every loader in the package hands it out: built
// by Compile, and read back from its CPS5 blob through each view and mapped.
func loadedEveryWay(t *testing.T, c *Model) map[string]*Model {
	t.Helper()
	models := map[string]*Model{"Compile": c}
	for name, mode := range map[string]ViewMode{"copy": ViewCopy, "view": ViewAuto} {
		models["CPS5 "+name] = mustCompact(t, c, mode)
	}
	if mmapSupported {
		m, _ := mmapAt(t, mustFlat5(t, c), 0)
		t.Cleanup(func() { m.Release() })
		models["CPS5 mmap"] = m
	}
	return models
}

// TestMatchWeightsAreGaussian: whichever loader built the model, the mixture
// weights match computes — Eq. (4) read from the load-time table below
// weightTableLen, evaluated from there on, then normalised — are
// markov.Gaussian's values bit for bit, for contexts from 0 to 40 queries
// longer than their descent, across the table's edge.
func TestMatchWeightsAreGaussian(t *testing.T) {
	c, sessions, _, _ := flatTestModel(t, 29)
	var ctxs []query.Seq
	for _, s := range sessions[:40] {
		ctxs = append(ctxs, s.Queries)
	}
	for name, m := range loadedEveryWay(t, c) {
		s := m.scratch.p.Get().(*scratch)
		compared := 0
		for _, ctx := range ctxs {
			m.descend(s, ctx)
			if len(s.path) == 0 {
				continue
			}
			for extra := 0; extra <= weightTableLen+8; extra++ {
				ctxLen := len(s.path) + extra
				ok := m.match(s, ctxLen)
				want := make([]float64, m.k)
				var sum float64
				for i := range want {
					if s.matched[i] > 0 {
						want[i] = markov.Gaussian(float64(ctxLen-int(s.matched[i])), m.sigma[i])
						sum += want[i]
					}
				}
				if ok != (sum > 0) {
					t.Fatalf("%s: ctx %v + %d: match = %v with weights summing to %v", name, ctx, extra, ok, sum)
				}
				for i := range want {
					if ok {
						want[i] /= sum
					}
					if math.Float64bits(s.w[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: ctx %v + %d, component %d (σ=%v, matched %d): weight %v, from markov.Gaussian %v",
							name, ctx, extra, i, m.sigma[i], s.matched[i], s.w[i], want[i])
					}
					compared++
				}
			}
		}
		m.scratch.p.Put(s)
		if compared == 0 {
			t.Fatalf("%s: no context descended", name)
		}
	}
}

// TestLongContextParity runs compiled-vs-interpreted parity on contexts
// longer than the weight table: a matched suffix of a few queries at the end
// of 40 puts every component's Eq. (4) argument past the tabulated range.
func TestLongContextParity(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 31)
	m := markov.NewMVMM(sessions, []float64{0.0, 0.02, 0.08}, vocab,
		markov.MVMMOptions{TrainSample: 120, NewtonIters: 5})
	var long []query.Seq
	for _, ctx := range parityContexts(rng, sessions, vocab) {
		if len(ctx) == 0 {
			continue
		}
		// An unseen query in front of the context's own tail: the descent
		// stops where it stopped before, ctxLen grows past the table.
		pad := make(query.Seq, weightTableLen+8, weightTableLen+8+len(ctx))
		for i := range pad {
			pad[i] = query.ID(vocab + 1)
		}
		long = append(long, append(pad, ctx...))
	}
	answered := 0
	for _, ctx := range long {
		if len(c.Predict(ctx, 5)) > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Fatalf("none of the %d long contexts is answered: the computed weights are never used", len(long))
	}
	assertParity(t, m, c, long, vocab, rng)
	for name, loaded := range loadedEveryWay(t, c) {
		if loaded != c {
			t.Run(name, func(t *testing.T) { assertQuantParity(t, c, loaded, long, vocab, rng) })
		}
	}
}
