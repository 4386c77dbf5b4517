package core

import (
	"io"
	"sync"

	"repro/internal/compiled"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/session"
)

// Recommender is the single serving seam of the repository: everything
// upstream of a model — the suggestion cache, the fleet registry and router,
// the HTTP handlers — recommends through exactly this interface and never
// learns which model family answers. Engine (the trained MVMM pipeline)
// implements it natively; FromPredictor lifts any compiled.Predictor (HMM,
// cluster, pairwise adjacency/co-occurrence) into it, which is how the
// paper's other model families become fleet arms.
//
// The historical Recommend/RecommendIDs/InternContext method sprawl lives on
// as package-level shims (Recommend, RecommendIDs, AppendContext,
// AppendContextBytes, InternContext) expressed over this interface, so there
// is one recommendation code path.
//
// Implementations must be immutable after construction: every method except
// Close is safe for unbounded concurrent callers without locking, and
// AppendSuggestions must be allocation-free with a recycled dst whenever the
// underlying Predictor advertises Shape().ZeroAlloc.
type Recommender interface {
	// Dict exposes the query dictionary contexts are interned against.
	Dict() *query.Dict
	// Predictor exposes the underlying prediction seam, or nil when the
	// implementation serves from a pre-Predictor interpreted model.
	Predictor() compiled.Predictor
	// AppendSuggestions appends up to n ranked suggestions for the interned
	// context to dst and returns the extended slice — the zero-allocation
	// serving primitive.
	AppendSuggestions(dst []Suggestion, ctx query.Seq, n int) []Suggestion
	// RecommendBatchIDs scores many interned contexts at once; results
	// align 1:1 with ctxs, nil for uncovered contexts, and each non-nil
	// slice is freshly allocated (result caches retain them).
	RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]Suggestion
	// Probability estimates P̂(q | context) for the log-loss analyses.
	Probability(context []string, q string) float64
	// Stats returns training-collection statistics (zero for loaded
	// adapters that never saw the raw log).
	Stats() session.Stats
	// LoadInfo reports how the serving model materialised.
	LoadInfo() LoadInfo
	// CompiledModel exposes the flat MVMM serving form when the
	// implementation has one, nil otherwise (non-MVMM family arms).
	CompiledModel() *compiled.Model
	// Close releases resources tied to the serving model (mmap regions);
	// the recommender must not be used afterwards.
	Close() error
}

// Recommend returns up to n ranked query suggestions for the user's context
// — the queries already issued this session, oldest first. Unknown context
// queries are dropped (suffix matching and escape handle the resulting
// shorter context); an empty or fully unknown context yields no suggestions.
func Recommend(r Recommender, context []string, n int) []Suggestion {
	return RecommendIDs(r, InternContext(r.Dict(), context), n)
}

// RecommendIDs is the allocation-lean shim over AppendSuggestions: it
// accepts an already-interned context (see InternContext / AppendContext) so
// serving layers that cache on context IDs intern exactly once per request.
// The returned slice is freshly allocated (result caches retain it) and
// sized to the answer, nil — and nothing allocated — when there are no
// suggestions; use AppendSuggestions directly to recycle the output buffer
// too.
func RecommendIDs(r Recommender, ctx query.Seq, n int) []Suggestion {
	if len(ctx) == 0 {
		return nil
	}
	out := r.AppendSuggestions(nil, ctx, n)
	if len(out) == 0 {
		return nil
	}
	return out
}

// InternContext resolves the user's context strings to interned IDs,
// dropping queries unknown to the training vocabulary. The result feeds
// RecommendIDs and is the canonical cache key for a request.
func InternContext(d *query.Dict, context []string) query.Seq {
	return AppendContext(d, make(query.Seq, 0, len(context)), context)
}

// AppendContext is the zero-allocation variant of InternContext: resolved
// IDs are appended to dst (which may be a pooled buffer) and the extended
// slice is returned.
func AppendContext(d *query.Dict, dst query.Seq, context []string) query.Seq {
	for _, q := range context {
		if id, ok := d.Lookup(q); ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// AppendContextBytes is AppendContext for contexts held as raw byte slices —
// the HTTP fast path, which percent-decodes query parameters into pooled
// buffers and must not materialise strings to intern them.
func AppendContextBytes(d *query.Dict, dst query.Seq, context [][]byte) query.Seq {
	for _, q := range context {
		if id, ok := d.LookupBytes(q); ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// predictorRec lifts a compiled.Predictor into the Recommender seam: one
// shared implementation serves every non-MVMM model family. Prediction
// scratch is pooled per adapter (the "per-arm scratch pool"), so arms whose
// Predictor honours the zero-alloc contract serve allocation-free.
type predictorRec struct {
	dict *query.Dict
	strs []string // dict's published string table
	p    compiled.Predictor
	info LoadInfo
	bufs sync.Pool // *[]model.Prediction
}

// FromPredictor wraps a model-family Predictor as a Recommender over dict.
// The dictionary must be the one the model's query IDs were interned
// against. info describes the model's provenance for /healthz and /v1/models
// (zero value is fine for in-process construction). The dictionary is
// published here, as an Engine's is where it is made.
func FromPredictor(dict *query.Dict, p compiled.Predictor, info LoadInfo) Recommender {
	return &predictorRec{dict: dict, strs: dict.Publish(), p: p, info: info}
}

func (a *predictorRec) Dict() *query.Dict             { return a.dict }
func (a *predictorRec) Predictor() compiled.Predictor { return a.p }
func (a *predictorRec) LoadInfo() LoadInfo            { return a.info }
func (a *predictorRec) Stats() session.Stats          { return session.Stats{} }

// CompiledModel reports the trie when the wrapped Predictor is one (an
// MVMM arm built through FromPredictor), nil for other families.
func (a *predictorRec) CompiledModel() *compiled.Model {
	if cm, ok := a.p.(*compiled.Model); ok {
		return cm
	}
	return nil
}

func (a *predictorRec) AppendSuggestions(dst []Suggestion, ctx query.Seq, n int) []Suggestion {
	if len(ctx) == 0 || n <= 0 {
		return dst
	}
	buf, _ := a.bufs.Get().(*[]model.Prediction)
	if buf == nil {
		b := make([]model.Prediction, 0, 64)
		buf = &b
	}
	preds := a.p.PredictInto((*buf)[:0], ctx, n)
	dst = appendResolved(dst, a.strs, preds)
	*buf = preds[:0]
	a.bufs.Put(buf)
	return dst
}

func (a *predictorRec) RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]Suggestion {
	out := make([][]Suggestion, len(ctxs))
	for i, ctx := range ctxs {
		out[i] = RecommendIDs(a, ctx, ns[i])
	}
	return out
}

func (a *predictorRec) Probability(context []string, q string) float64 {
	id, ok := a.dict.Lookup(q)
	if !ok {
		return 0
	}
	return a.p.Prob(InternContext(a.dict, context), id)
}

// Close releases the wrapped Predictor's resources when it has any (the
// compiled trie's mmap region via Release, or any io.Closer).
func (a *predictorRec) Close() error {
	switch c := a.p.(type) {
	case interface{ Release() error }:
		return c.Release()
	case io.Closer:
		return c.Close()
	}
	return nil
}

var (
	_ Recommender = (*Engine)(nil)
	_ Recommender = (*predictorRec)(nil)
)
