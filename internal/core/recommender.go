package core

import (
	"repro/internal/compiled"
	"repro/internal/query"
	"repro/internal/session"
)

// Recommender is the single serving seam of the repository: everything
// upstream of a model — the suggestion cache, the fleet registry and router,
// the HTTP handlers — recommends through exactly this interface. Engine, the
// trained or loaded MVMM, is its one implementation; the paper's baselines
// are compared with it offline (internal/experiments), not served. The
// interface stays so that the serving layers, and the end-to-end benchmark's
// span-timing wrapper (bench/), name the seam rather than the concrete type.
//
// The historical Recommend/RecommendIDs/InternContext method sprawl lives on
// as package-level shims (Recommend, RecommendIDs, AppendContext,
// AppendContextBytes, InternContext) expressed over this interface, so there
// is one recommendation code path.
//
// Implementations must be immutable after construction: every method except
// Close is safe for unbounded concurrent callers without locking, and
// AppendSuggestions and AppendBatchSuggestions must be allocation-free with
// recycled buffers whenever the model serves from its compiled form.
type Recommender interface {
	// Dict exposes the query dictionary contexts are interned against.
	Dict() *query.Dict
	// AppendSuggestions appends up to n ranked suggestions for the interned
	// context to dst and returns the extended slice — the zero-allocation
	// serving primitive.
	AppendSuggestions(dst []Suggestion, ctx query.Seq, n int) []Suggestion
	// AppendBatchSuggestions scores many interned contexts at once,
	// appending their suggestions to dst back to back and, to ends, where
	// each context's run stops (the first starts at len(dst) on entry) —
	// the batch twin of AppendSuggestions, allocation-free under the same
	// conditions.
	AppendBatchSuggestions(dst []Suggestion, ends []int, ctxs []query.Seq, ns []int) ([]Suggestion, []int)
	// RecommendBatchIDs is AppendBatchSuggestions cut into one slice per
	// context, nil for an uncovered one, all on one fresh array. Nothing in
	// the serving path calls it; the end-to-end benchmark's span-timing
	// wrapper (bench/) does.
	RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]Suggestion
	// Probability estimates P̂(q | context) for the log-loss analyses.
	Probability(context []string, q string) float64
	// Stats returns training-collection statistics (zero for a loaded
	// model, which never saw the raw log).
	Stats() session.Stats
	// LoadInfo reports how the serving model materialised.
	LoadInfo() LoadInfo
	// CompiledModel exposes the flat MVMM serving form, which every
	// recommender serves from.
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

var _ Recommender = (*Engine)(nil)
