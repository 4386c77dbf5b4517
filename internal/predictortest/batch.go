package predictortest

import (
	"sync"
	"testing"

	"repro/internal/compiled"
	"repro/internal/model"
	"repro/internal/query"
)

// batchPredictor is the optional batched entry point some families expose
// (the compiled MVMM trie). emit is invoked exactly once per context index,
// in index order; preds is only valid for the duration of the call.
type batchPredictor interface {
	PredictBatch(ctxs []query.Seq, ns []int, emit func(i int, preds []model.Prediction))
}

// parallelBatchPredictor is the worker-fanned variant: answers must be
// bit-identical to the sequential batch for every worker count.
type parallelBatchPredictor interface {
	PredictBatchParallel(ctxs []query.Seq, ns []int, workers int, emit func(i int, preds []model.Prediction))
}

// checkBatch verifies batched prediction against the one-context-at-a-time
// baseline. Every family runs the replay check (a second sequential pass
// over a batch-shaped workload matches the first); families exposing
// PredictBatch must additionally emit exactly once per index, in index
// order, with answers bit-identical to PredictInto, and PredictBatchParallel
// the same answers under every worker count (in any order: its workers emit
// concurrently).
func checkBatch(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	// A batch large enough to clear the parallel fan-out's sequential
	// fallback, with repeated contexts, varied n, and the indices that answer
	// nothing: an empty context, n <= 0, a query ID past the vocabulary.
	var bctxs []query.Seq
	var ns []int
	for len(bctxs) < 48 {
		for i, ctx := range ctxs {
			bctxs = append(bctxs, ctx)
			ns = append(ns, 1+(len(bctxs)+i)%5)
		}
	}
	unknown := query.ID(p.Shape().Vocab)
	uncovered := []query.Seq{{unknown}, {0, unknown}}
	for _, ctx := range uncovered {
		if got := p.PredictInto(nil, ctx, 5); len(got) != 0 {
			t.Fatalf("the uncovered context %v answered %d predictions", ctx, len(got))
		}
	}
	bctxs = append(bctxs, nil, query.Seq{}, ctxs[0], ctxs[0], uncovered[0], uncovered[1])
	ns = append(ns, 5, 5, 0, -1, 5, 5)
	want := make([][]model.Prediction, len(bctxs))
	for i, ctx := range bctxs {
		if ns[i] > 0 {
			want[i] = p.PredictInto(nil, ctx, ns[i])
		}
	}

	// Replay parity: batch-shaped sequential serving is deterministic.
	for i, ctx := range bctxs {
		if ns[i] > 0 {
			assertSamePreds(t, "replay", i, p.PredictInto(nil, ctx, ns[i]), want[i])
		}
	}

	collect := func(run func(emit func(i int, preds []model.Prediction))) (got [][]model.Prediction, order []int) {
		got = make([][]model.Prediction, len(bctxs))
		emitted := make([]int, len(bctxs))
		var mu sync.Mutex
		run(func(i int, preds []model.Prediction) {
			mu.Lock()
			emitted[i]++
			order = append(order, i)
			got[i] = append([]model.Prediction(nil), preds...)
			mu.Unlock()
		})
		for i, n := range emitted {
			if n != 1 {
				t.Fatalf("index %d emitted %d times, want exactly once", i, n)
			}
		}
		return got, order
	}

	if bp, ok := p.(batchPredictor); ok {
		got, order := collect(func(emit func(int, []model.Prediction)) { bp.PredictBatch(bctxs, ns, emit) })
		for k, i := range order {
			if i != k {
				t.Fatalf("PredictBatch's emit number %d was for index %d, want index order", k, i)
			}
		}
		for i := range want {
			assertSamePreds(t, "PredictBatch", i, got[i], want[i])
		}
	}
	if pp, ok := p.(parallelBatchPredictor); ok {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			got, _ := collect(func(emit func(int, []model.Prediction)) {
				pp.PredictBatchParallel(bctxs, ns, workers, emit)
			})
			for i := range want {
				assertSamePreds(t, "PredictBatchParallel", i, got[i], want[i])
			}
		}
	}
}

// assertSamePreds requires bit-identical predictions — batched serving may
// not drift from the sequential answer by even an ulp.
func assertSamePreds(t *testing.T, label string, i int, got, want []model.Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: index %d answered %d predictions, want %d", label, i, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: index %d rank %d: %+v, want %+v", label, i, j, got[j], want[j])
		}
	}
}
