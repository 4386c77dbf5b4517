package compiled

import (
	"runtime"
	"sync"

	"repro/internal/model"
	"repro/internal/query"
)

// PredictBatch ranks up to ns[i] predictions for every ctxs[i]: the
// single-context descent of AppendPredictions, in index order, over one
// pooled scratch. This is the serving engine behind POST /suggest/batch.
// (Sorting the batch to share descent prefixes and score in-batch duplicates
// once cost more than it saved: ARCHITECTURE §4 has the measurement.)
//
// emit is invoked exactly once per context index, in index order. preds is
// only valid for the duration of the call (the buffer is recycled for the
// next context): consume or copy it before returning. Contexts that are
// empty, have ns[i] <= 0, or are uncovered emit nil. Predictions are
// identical to per-context AppendPredictions calls.
func (c *Model) PredictBatch(ctxs []query.Seq, ns []int, emit func(i int, preds []model.Prediction)) {
	if len(ctxs) == 0 {
		return
	}
	if len(ns) != len(ctxs) {
		panic("compiled: PredictBatch ns and ctxs lengths differ")
	}
	s := c.scratch.p.Get().(*scratch)
	defer c.scratch.p.Put(s)
	for i, ctx := range ctxs {
		var preds []model.Prediction
		if len(ctx) > 0 && ns[i] > 0 {
			c.descend(s, ctx)
			s.bpreds = c.appendRanked(s, s.bpreds[:0], len(ctx), ns[i])
			if len(s.bpreds) > 0 {
				preds = s.bpreds
			}
		}
		emit(i, preds)
	}
}

// parallelBatchMin is the batch size below which PredictBatchParallel takes
// the sequential path: goroutine fan-out costs more than it saves on a
// handful of descents.
const parallelBatchMin = 16

// PredictBatchParallel is PredictBatch with the batch cut into contiguous
// index chunks, one per worker goroutine (workers <= 0 means GOMAXPROCS),
// each run through PredictBatch with its own pooled scratch. Every prediction
// depends only on its (context, n) pair, so the answers are bit-identical to
// the sequential path — the parity test enforces it.
//
// Unlike PredictBatch, emit may be invoked concurrently from different
// workers (still exactly once per index, with distinct i); preds remains
// valid only for the duration of the call. Batches smaller than the fan-out
// is worth (or workers == 1) fall back to the sequential path, so callers
// can use this form unconditionally.
func (c *Model) PredictBatchParallel(ctxs []query.Seq, ns []int, workers int, emit func(i int, preds []model.Prediction)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(ctxs) < parallelBatchMin || len(ctxs) < 2*workers {
		c.PredictBatch(ctxs, ns, emit)
		return
	}
	if len(ns) != len(ctxs) {
		panic("compiled: PredictBatchParallel ns and ctxs lengths differ")
	}
	chunk := (len(ctxs) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(ctxs); lo += chunk {
		hi := min(lo+chunk, len(ctxs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.PredictBatch(ctxs[lo:hi], ns[lo:hi], func(i int, preds []model.Prediction) { emit(lo+i, preds) })
		}()
	}
	wg.Wait()
}
