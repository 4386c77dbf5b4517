// Package predictortest is the executable specification of the
// compiled.Predictor contract. Every model family — the served compiled
// MVMM trie, and the HMM, cluster recommender and pairwise baselines the
// paper compares it with — runs the same conformance suite, so "implements
// Predictor" means one verified thing rather than five ad-hoc ones.
//
// Usage, from a family's own test file:
//
//	predictortest.Run(t, p, ctxs)
//
// where ctxs are contexts the model is expected to cover. The suite checks
// determinism, ranking discipline (descending scores, no duplicate IDs,
// topN respected, smaller topN is a prefix of larger), Prob consistency with
// PredictInto, dst append semantics, and — when Shape advertises ZeroAlloc —
// that PredictInto performs no steady-state allocations.
package predictortest

import (
	"testing"

	"repro/internal/compiled"
	"repro/internal/model"
	"repro/internal/query"
)

// Run exercises the full Predictor contract against p. ctxs must contain at
// least one context the model covers (PredictInto returns predictions for
// it); uncovered contexts are allowed and exercise the empty-answer path.
func Run(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	shape := p.Shape()
	t.Run("shape", func(t *testing.T) { checkShape(t, shape) })
	t.Run("empty-context", func(t *testing.T) {
		if got := p.PredictInto(nil, nil, 5); len(got) != 0 {
			t.Errorf("PredictInto(nil ctx) returned %d predictions, want 0", len(got))
		}
	})
	covered := 0
	for _, ctx := range ctxs {
		if len(p.PredictInto(nil, ctx, 5)) > 0 {
			covered++
		}
	}
	if covered == 0 {
		t.Fatalf("no covered context among the %d provided: the suite needs at least one non-empty answer", len(ctxs))
	}
	t.Run("ranking", func(t *testing.T) { checkRanking(t, p, ctxs) })
	t.Run("determinism", func(t *testing.T) { checkDeterminism(t, p, ctxs) })
	t.Run("append-semantics", func(t *testing.T) { checkAppend(t, p, ctxs) })
	t.Run("prob", func(t *testing.T) { checkProb(t, p, ctxs) })
	t.Run("batch", func(t *testing.T) { checkBatch(t, p, ctxs) })
	if shape.ZeroAlloc {
		t.Run("zero-alloc", func(t *testing.T) { checkZeroAlloc(t, p, ctxs) })
	}
}

func checkShape(t *testing.T, s compiled.Shape) {
	t.Helper()
	switch s.Family {
	case compiled.FamilyMVMM, compiled.FamilyHMM, compiled.FamilyCluster,
		compiled.FamilyAdjacency, compiled.FamilyCooccurrence:
	default:
		t.Errorf("Shape().Family = %q, not a stable family identifier", s.Family)
	}
	if s.Label == "" {
		t.Error("Shape().Label is empty")
	}
	if s.Vocab <= 0 {
		t.Errorf("Shape().Vocab = %d, want > 0", s.Vocab)
	}
	if s.States < 0 || s.Depth < 0 {
		t.Errorf("negative geometry: states=%d depth=%d", s.States, s.Depth)
	}
}

// checkRanking verifies the per-call ranking discipline on every context:
// at most topN results, descending scores, no duplicate query IDs, every
// score positive, and the topN=k answer a prefix of the topN=k+2 answer.
func checkRanking(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	for _, ctx := range ctxs {
		small := p.PredictInto(nil, ctx, 3)
		large := p.PredictInto(nil, ctx, 5)
		if len(small) > 3 || len(large) > 5 {
			t.Fatalf("ctx %v: more predictions than topN (%d > 3 or %d > 5)", ctx, len(small), len(large))
		}
		if len(large) < len(small) {
			t.Fatalf("ctx %v: larger topN returned fewer predictions (%d < %d)", ctx, len(large), len(small))
		}
		for i, pr := range small {
			if pr != large[i] {
				t.Fatalf("ctx %v: topN=3 answer is not a prefix of topN=5 (index %d: %+v vs %+v)", ctx, i, pr, large[i])
			}
		}
		seen := make(map[query.ID]bool, len(large))
		for i, pr := range large {
			if pr.Score <= 0 {
				t.Fatalf("ctx %v: non-positive score %v at rank %d", ctx, pr.Score, i)
			}
			if i > 0 && large[i-1].Score < pr.Score {
				t.Fatalf("ctx %v: scores not descending at rank %d (%v < %v)", ctx, i, large[i-1].Score, pr.Score)
			}
			if seen[pr.Query] {
				t.Fatalf("ctx %v: duplicate query %d in one answer", ctx, pr.Query)
			}
			seen[pr.Query] = true
		}
	}
}

func checkDeterminism(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	for _, ctx := range ctxs {
		a := p.PredictInto(nil, ctx, 5)
		b := p.PredictInto(nil, ctx, 5)
		if len(a) != len(b) {
			t.Fatalf("ctx %v: non-deterministic answer length %d vs %d", ctx, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("ctx %v: non-deterministic rank %d: %+v vs %+v", ctx, i, a[i], b[i])
			}
		}
	}
}

// checkAppend verifies PredictInto appends: pre-existing dst elements
// survive, and a recycled dst produces the same answer as a nil one.
func checkAppend(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	sentinel := model.Prediction{Query: 1<<31 - 1, Score: -1}
	buf := make([]model.Prediction, 0, 64)
	for _, ctx := range ctxs {
		want := p.PredictInto(nil, ctx, 5)
		got := p.PredictInto(append(buf[:0], sentinel), ctx, 5)
		if len(got) != len(want)+1 || got[0] != sentinel {
			t.Fatalf("ctx %v: PredictInto did not append (len %d, want %d; head %+v)", ctx, len(got), len(want)+1, got[0])
		}
		for i, pr := range got[1:] {
			if pr != want[i] {
				t.Fatalf("ctx %v: recycled-dst answer diverges at rank %d: %+v vs %+v", ctx, i, pr, want[i])
			}
		}
	}
}

// checkProb verifies Prob agrees with PredictInto: every predicted query has
// positive probability under the same context, and the top prediction's
// probability is no smaller than the bottom one's.
func checkProb(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	for _, ctx := range ctxs {
		preds := p.PredictInto(nil, ctx, 5)
		for _, pr := range preds {
			pb := p.Prob(ctx, pr.Query)
			if pb <= 0 {
				t.Fatalf("ctx %v: predicted query %d has Prob %v, want > 0", ctx, pr.Query, pb)
			}
			if pb > 1+1e-9 {
				t.Fatalf("ctx %v: Prob(%d) = %v > 1", ctx, pr.Query, pb)
			}
		}
	}
	if got := p.Prob(nil, 0); got != 0 {
		t.Errorf("Prob(empty ctx) = %v, want 0", got)
	}
}

// checkZeroAlloc holds implementations to the advertised ZeroAlloc contract:
// with a recycled, pre-sized dst, steady-state PredictInto allocates nothing.
func checkZeroAlloc(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	dst := make([]model.Prediction, 0, 64)
	// Warm pooled scratch before measuring.
	for _, ctx := range ctxs {
		dst = p.PredictInto(dst[:0], ctx, 5)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, ctx := range ctxs {
			dst = p.PredictInto(dst[:0], ctx, 5)
		}
	})
	if allocs != 0 {
		t.Errorf("PredictInto allocates %.1f times per run despite Shape().ZeroAlloc", allocs)
	}
}
