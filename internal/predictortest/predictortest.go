// Package predictortest is the executable specification of the
// model.Predictor contract. Every model in the repository — the paper's
// seven (Adjacency, Co-occurrence, N-gram, three VMMs, the MVMM) and the
// compiled MVMM trie, exact and as the CPS5 bytes a model file holds — runs
// the same suite, so "implements model.Predictor" means one verified thing
// rather than nine ad-hoc ones.
//
// Usage, from a model's own test file:
//
//	predictortest.Run(t, p, ctxs)
//
// where ctxs holds at least one context the model covers. The suite checks
// ranking discipline (topN respected, the topN=3 answer a prefix of the
// topN=5 one, descending positive scores, no duplicate IDs), determinism,
// that the caller owns every answer, Prob in (0, 1] for every predicted query
// and 0 for an empty context, and that Covers(ctx) holds exactly when
// Predict(ctx, 5) answers — on ctxs, on the empty context and on contexts
// holding an ID past any vocabulary. Models with an appending or a batched
// entry point (the compiled trie) must answer through it exactly as Predict
// does.
package predictortest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/query"
)

// unknown is a query ID past any vocabulary the repository trains, so the
// suite needs no model to report its vocabulary size.
const unknown = query.ID(math.MaxInt32)

// Run exercises the model.Predictor contract against p. ctxs must contain at
// least one context the model covers; uncovered contexts are allowed and
// exercise the empty-answer path.
func Run(t *testing.T, p model.Predictor, ctxs []query.Seq) {
	t.Helper()
	if p.Name() == "" {
		t.Error("Name() is empty")
	}
	t.Run("empty-context", func(t *testing.T) {
		for _, ctx := range []query.Seq{nil, {}} {
			if got := p.Predict(ctx, 5); len(got) != 0 {
				t.Errorf("Predict(%#v) returned %d predictions, want 0", ctx, len(got))
			}
			if p.Covers(ctx) {
				t.Errorf("Covers(%#v) = true, want false", ctx)
			}
			if got := p.Prob(ctx, 0); got != 0 {
				t.Errorf("Prob(%#v, 0) = %v, want 0", ctx, got)
			}
		}
	})
	covered := 0
	for _, ctx := range ctxs {
		if len(p.Predict(ctx, 5)) > 0 {
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
	t.Run("covers", func(t *testing.T) { checkCovers(t, p, ctxs) })
	t.Run("batch", func(t *testing.T) { checkBatch(t, p, ctxs) })
}

// checkRanking verifies the per-call ranking discipline on every context:
// at most topN results, descending scores, no duplicate query IDs, every
// score positive, and the topN=3 answer a prefix of the topN=5 answer.
func checkRanking(t *testing.T, p model.Predictor, ctxs []query.Seq) {
	t.Helper()
	for _, ctx := range ctxs {
		small := p.Predict(ctx, 3)
		large := p.Predict(ctx, 5)
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

func checkDeterminism(t *testing.T, p model.Predictor, ctxs []query.Seq) {
	t.Helper()
	for _, ctx := range ctxs {
		assertSamePreds(t, fmt.Sprintf("ctx %v: a second Predict", ctx), p.Predict(ctx, 5), p.Predict(ctx, 5))
	}
}

// appender is the optional allocation-free entry point (the compiled trie's
// AppendPredictions): it appends to dst and must not retain dst or ctx.
type appender interface {
	AppendPredictions(dst []model.Prediction, ctx query.Seq, topN int) []model.Prediction
}

// checkAppend verifies that the caller owns every answer: scribbling over
// one Predict result changes no later one. Models with AppendPredictions
// must also append — pre-existing dst elements survive, and a recycled dst
// answers exactly as Predict does.
func checkAppend(t *testing.T, p model.Predictor, ctxs []query.Seq) {
	t.Helper()
	sentinel := model.Prediction{Query: unknown, Score: -1}
	for _, ctx := range ctxs {
		want := p.Predict(ctx, 5)
		scribbled := p.Predict(ctx, 5)
		for i := range scribbled {
			scribbled[i] = sentinel
		}
		assertSamePreds(t, fmt.Sprintf("ctx %v: Predict after scribbling over an earlier answer", ctx), p.Predict(ctx, 5), want)
	}
	ap, ok := p.(appender)
	if !ok {
		return
	}
	buf := make([]model.Prediction, 0, 64)
	for _, ctx := range ctxs {
		want := p.Predict(ctx, 5)
		got := ap.AppendPredictions(append(buf[:0], sentinel), ctx, 5)
		if len(got) != len(want)+1 || got[0] != sentinel {
			t.Fatalf("ctx %v: AppendPredictions did not append (len %d, want %d; head %+v)", ctx, len(got), len(want)+1, got[0])
		}
		assertSamePreds(t, fmt.Sprintf("ctx %v: AppendPredictions into a recycled dst", ctx), got[1:], want)
	}
}

// checkProb verifies Prob agrees with Predict: every predicted query has a
// probability in (0, 1] under the same context.
func checkProb(t *testing.T, p model.Predictor, ctxs []query.Seq) {
	t.Helper()
	for _, ctx := range ctxs {
		for _, pr := range p.Predict(ctx, 5) {
			pb := p.Prob(ctx, pr.Query)
			if pb <= 0 {
				t.Fatalf("ctx %v: predicted query %d has Prob %v, want > 0", ctx, pr.Query, pb)
			}
			if pb > 1+1e-9 {
				t.Fatalf("ctx %v: Prob(%d) = %v > 1", ctx, pr.Query, pb)
			}
		}
	}
}

// checkCovers verifies that Covers(ctx) holds exactly when Predict(ctx, 5)
// answers, over ctxs, the empty context, and contexts that start with, end
// with or consist of an ID no model was trained on.
func checkCovers(t *testing.T, p model.Predictor, ctxs []query.Seq) {
	t.Helper()
	probe := []query.Seq{nil, {}, {unknown}, {0, unknown}}
	for _, ctx := range ctxs {
		probe = append(probe, ctx, append(ctx.Clone(), unknown), append(query.Seq{unknown}, ctx...))
	}
	for _, ctx := range probe {
		if covers, n := p.Covers(ctx), len(p.Predict(ctx, 5)); covers != (n > 0) {
			t.Fatalf("ctx %v: Covers = %v but Predict answered %d predictions", ctx, covers, n)
		}
	}
}
