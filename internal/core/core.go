// Package core is the public facade of the reproduction: an end-to-end
// query recommender that consumes raw search logs (or pre-segmented
// sessions), runs the paper's data pipeline (30-minute segmentation,
// aggregation, frequency-threshold reduction), trains the MVMM mixture, and
// serves ranked next-query recommendations online.
//
// Typical usage:
//
//	rec, err := core.TrainFromLog(logFile, core.DefaultConfig())
//	suggestions := core.Recommend(rec, []string{"nokia n73", "nokia n73 themes"}, 5)
//
// Serving is expressed over the Recommender interface: Engine (the trained
// MVMM pipeline) and FromPredictor adapters over any compiled.Predictor
// (HMM, cluster, pairwise fleet arms) implement the same seam, so cache,
// fleet and serve hold a Recommender and never know which family answers.
//
// Persistence: Save writes the current QRECV005 container (dictionary,
// interpreted mixture, and the compact quantised CPS5 compiled blob at a
// page-aligned offset); SaveAs keeps the QRECV002/QRECV003/QRECV004
// writers. Load reads every version back to QRECV001. LoadPath is the
// production cold-start route: for V003/V004/V005 files it memory-maps the
// compiled blob (no decoding, lazy page-in, cross-process page sharing) and
// defers the interpreted-mixture decode until first Model() use; LoadInfo
// reports the route taken, the blob encoding served and its byte length.
//
// Invariants: an Engine is immutable after training or loading — the
// Recommender methods are safe for unbounded concurrent callers without
// locking, and the Append* variants are allocation-free with recycled
// buffers. Serving goes through the
// compiled single-PST form whenever it exists (always, for mixtures built
// by this pipeline); quantised (CPS4-loaded) models serve with a bounded
// ≤ ~2e-5 absolute probability error, and SaveAs transparently recompiles
// from the mixture when an exact format is requested from one.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiled"
	"repro/internal/logfmt"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/session"
)

// Config controls training.
type Config struct {
	// SessionGap is the segmentation threshold; 0 applies the paper's
	// 30-minute rule.
	SessionGap time.Duration
	// ReductionThreshold drops aggregated sessions with frequency <= this
	// value (the paper uses 5). Negative disables reduction.
	ReductionThreshold int
	// Epsilons lists the mixture's VMM growth thresholds; nil uses the
	// paper's eleven values {0.0, 0.01, ..., 0.1}.
	Epsilons []float64
	// Mixture tunes σ learning and parallel component training.
	Mixture markov.MVMMOptions
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		SessionGap:         session.DefaultGap,
		ReductionThreshold: 5,
		Epsilons:           markov.DefaultEpsilons(),
		Mixture:            markov.MVMMOptions{Parallel: true},
	}
}

// Suggestion is one recommended query with its mixture score.
type Suggestion struct {
	Query string
	Score float64
}

// Engine is the trained end-to-end MVMM recommendation system — the
// concrete Recommender behind the paper's main pipeline.
//
// After training (or loading) the mixture is compiled into a flat single-PST
// serving form (internal/compiled): AppendSuggestions and Probability run
// one trie descent with zero steady-state allocations instead of walking the
// K map-based component trees. The interpreted mixture is retained as the
// build artifact — evaluation code reads it via Model, and it is what Save
// persists alongside the compiled form. Should compilation ever fail (it
// cannot for mixtures built by this pipeline) the engine transparently
// serves from the interpreted model instead.
type Engine struct {
	dict *query.Dict
	// strs is dict's published string table, ID → query. Every Engine is
	// made once training is over or the file is read, so the vocabulary is
	// final: the dictionary is published there, and neither context interning
	// nor suggestion strings take its lock from then on.
	strs  []string
	mix   *markov.MVMM
	comp  *compiled.Model // nil ⇒ interpreted fallback
	stats session.Stats
	cfg   Config
	info  LoadInfo

	// batchWorkers caps the parallel batch descent's fan-out (see
	// SetBatchWorkers); 0 means GOMAXPROCS.
	batchWorkers atomic.Int32

	// V003 mmap loads defer decoding the interpreted mixture (serving only
	// needs the compiled form): Model() triggers mixLoad exactly once.
	mixOnce sync.Once
	mixLoad func() (*markov.MVMM, error)
	mixErr  error
}

// SetBatchWorkers caps the worker fan-out of the parallel batch descent
// behind RecommendBatchIDs: n <= 0 restores the default (GOMAXPROCS), 1
// forces the sequential path, anything else bounds the goroutines one batch
// may spawn. Safe to call concurrently with serving — the knob is read per
// batch. Results are bit-identical at any setting; only latency changes.
func (r *Engine) SetBatchWorkers(n int) {
	if n < 0 {
		n = 0
	}
	r.batchWorkers.Store(int32(n))
}

// Model-provenance modes reported by LoadInfo.
const (
	LoadModeTrained = "trained" // built in-process by TrainFrom*
	LoadModeHeap    = "heap"    // decoded from a model file into the heap
	LoadModeMmap    = "mmap"    // compiled form memory-mapped from a V003/V004 file
)

// LoadInfo describes how the recommender's serving model materialised —
// surfaced through /healthz and cmd/serve logs so cold-start behaviour and
// the served memory footprint are observable in production.
type LoadInfo struct {
	Mode      string        // LoadModeTrained, LoadModeHeap or LoadModeMmap
	Version   string        // save-format magic of the source file, "" if trained
	Format    string        // compiled-blob encoding served ("CPS1", "CPS3", "CPS4", "CPS5"); "" if compiled in-process
	BlobBytes int64         // byte length of the compiled blob decoded or mapped; 0 if compiled in-process
	MapAdvice string        // kernel paging hints applied to the mapping ("willneed", "mlock", …); "" when none
	Duration  time.Duration // wall time of the Load/LoadPath call
}

// LoadInfo reports the provenance of the serving model.
func (r *Engine) LoadInfo() LoadInfo { return r.info }

// stackPreds is the largest suggestion count AppendSuggestions predicts into
// an array on its own stack; predBufs pools the scratch of larger requests.
const stackPreds = 16

var predBufs = sync.Pool{New: func() any {
	b := make([]model.Prediction, 0, 64)
	return &b
}}

// queryAt is strs[id], "" for an ID outside the table (which only a corrupted
// blob can predict).
func queryAt(strs []string, id query.ID) string {
	if int(id) >= len(strs) {
		return ""
	}
	return strs[id]
}

// appendResolved appends preds to dst as suggestions, IDs resolved to strings.
// A nil dst grows once, to exactly what preds needs, and stays nil when preds
// is empty — which is how RecommendIDs gets a slice sized to the answer and
// pays nothing for a context the model does not cover.
func appendResolved(dst []Suggestion, strs []string, preds []model.Prediction) []Suggestion {
	dst = slices.Grow(dst, len(preds))
	for _, p := range preds {
		dst = append(dst, Suggestion{Query: queryAt(strs, p.Query), Score: p.Score})
	}
	return dst
}

// TrainFromLog reads a raw search log (logfmt records), runs the full
// pipeline and trains the MVMM.
func TrainFromLog(r io.Reader, cfg Config) (*Engine, error) {
	dict := query.NewDict()
	sessions, err := session.SegmentReader(logfmt.NewReader(r), dict, cfg.SessionGap)
	if err != nil {
		return nil, fmt.Errorf("core: segmenting log: %w", err)
	}
	return TrainFromSessions(dict, sessions, cfg), nil
}

// TrainFromSessions trains from already-segmented sessions whose queries
// were interned into dict.
func TrainFromSessions(dict *query.Dict, sessions []query.Seq, cfg Config) *Engine {
	agg := session.Aggregate(sessions)
	if cfg.ReductionThreshold >= 0 {
		agg, _ = session.Reduce(agg, uint64(cfg.ReductionThreshold))
	}
	return TrainFromAggregated(dict, agg, cfg)
}

// TrainFromAggregated trains from aggregated (sequence, frequency) sessions.
// No further reduction is applied.
func TrainFromAggregated(dict *query.Dict, agg []query.Session, cfg Config) *Engine {
	eps := cfg.Epsilons
	if len(eps) == 0 {
		eps = markov.DefaultEpsilons()
	}
	mix := markov.NewMVMMFromEpsilons(agg, eps, dict.Len(), cfg.Mixture)
	r := &Engine{dict: dict, strs: dict.Publish(), mix: mix, stats: session.Collect(agg), cfg: cfg,
		info: LoadInfo{Mode: LoadModeTrained}}
	r.comp, _ = compiled.Compile(mix)
	return r
}

// AppendSuggestions appends up to n ranked suggestions for the interned
// context to dst and returns the extended slice. With a recycled dst this is
// the zero-allocation serving path: the compiled model predicts into an
// array on this frame (pooled scratch past stackPreds suggestions) and
// suggestion strings are shared with the dictionary.
func (r *Engine) AppendSuggestions(dst []Suggestion, ctx query.Seq, n int) []Suggestion {
	if len(ctx) == 0 {
		return dst
	}
	if r.comp == nil { // interpreted fallback
		return appendResolved(dst, r.strs, r.mix.Predict(ctx, n))
	}
	if n <= stackPreds {
		var preds [stackPreds]model.Prediction
		return appendResolved(dst, r.strs, r.comp.AppendPredictions(preds[:0], ctx, n))
	}
	buf := predBufs.Get().(*[]model.Prediction)
	preds := r.comp.AppendPredictions((*buf)[:0], ctx, n)
	dst = appendResolved(dst, r.strs, preds)
	*buf = preds[:0]
	predBufs.Put(buf)
	return dst
}

// RecommendBatchIDs scores many interned contexts through the shared-scratch
// batched trie descent (compiled.PredictBatchParallel): contexts are grouped
// by shared suffix so sibling lookups amortise cache-line loads, and large
// batches are split across up to SetBatchWorkers goroutines (default
// GOMAXPROCS; answers are bit-identical to the sequential walk), which is
// what makes POST /suggest/batch cheaper than n single requests. Results
// align 1:1 with ctxs; uncovered or empty contexts yield nil entries. Each
// non-nil result slice is freshly allocated (callers cache them).
func (r *Engine) RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]Suggestion {
	out := make([][]Suggestion, len(ctxs))
	if r.comp == nil { // interpreted fallback: no batched descent available
		for i, ctx := range ctxs {
			out[i] = RecommendIDs(r, ctx, ns[i])
		}
		return out
	}
	r.comp.PredictBatchParallel(ctxs, ns, int(r.batchWorkers.Load()), func(i int, preds []model.Prediction) {
		if len(preds) == 0 {
			return
		}
		out[i] = appendResolved(make([]Suggestion, 0, len(preds)), r.strs, preds)
	})
	return out
}

// Probability returns the model's estimate that the user's next query is q
// given the context.
func (r *Engine) Probability(context []string, q string) float64 {
	ctx := r.internContext(context)
	id, ok := r.dict.Lookup(q)
	if !ok {
		return 0
	}
	if r.comp != nil {
		return r.comp.Prob(ctx, id)
	}
	return r.mix.Prob(ctx, id)
}

// internContext resolves context strings to IDs, dropping unknown queries.
func (r *Engine) internContext(context []string) query.Seq {
	return AppendContext(r.dict, make(query.Seq, 0, len(context)), context)
}

// Dict exposes the query dictionary.
func (r *Engine) Dict() *query.Dict { return r.dict }

// Model exposes the trained mixture (for evaluation and persistence). For
// recommenders mmap-loaded through LoadPath the mixture is decoded lazily on
// first call — cold starts that only serve never pay for it. Returns nil if
// the deferred decode fails (the error surfaces through Save).
func (r *Engine) Model() *markov.MVMM {
	if r.mixLoad != nil {
		r.mixOnce.Do(func() {
			m, err := r.mixLoad()
			if err != nil {
				r.mixErr = err
				return
			}
			r.mix = m
		})
	}
	return r.mix
}

// Close releases resources tied to the serving model — for V003 files loaded
// through LoadPath it unmaps the compiled form (otherwise it is a no-op; the
// GC would reclaim the mapping eventually regardless). The recommender must
// not be used after Close.
func (r *Engine) Close() error {
	if r.comp != nil {
		return r.comp.Release()
	}
	return nil
}

// CompiledModel exposes the flat serving form, or nil when the engine fell
// back to the interpreted mixture.
func (r *Engine) CompiledModel() *compiled.Model { return r.comp }

// Predictor implements Recommender: the compiled trie, or nil when the
// engine serves from the interpreted mixture (which predates the Predictor
// seam and has no zero-allocation contract).
func (r *Engine) Predictor() compiled.Predictor {
	if r.comp == nil {
		return nil
	}
	return r.comp
}

// Stats returns the training-collection statistics (Table IV shape).
func (r *Engine) Stats() session.Stats { return r.stats }

// Save-format magics. V001 files hold (dictionary, mixture); V002 appends a
// third section with the varint-encoded (CPS1) compiled single-PST serving
// form so cold starts skip recompilation; V003 stores the compiled form in
// the mmap-able CPS3 flat layout at a page-aligned file offset so cold
// starts skip decoding entirely (LoadPath maps it; the reader-based Load
// decodes it into the heap); V004 keeps the V003 framing but stores the
// compiled form in the quantised CPS4 layout — fixed-point uint16 follower
// probabilities against per-node float32 steps and width-narrowed node
// arrays — which shrinks the served blob by roughly half at a bounded
// (≤ ~2e-5 absolute) probability error. V005 keeps the same framing with
// the compact CPS5 layout — delta/varint-packed follower IDs and CSR
// offsets on top of CPS4's quantisation, at the same error bound. Load and
// LoadPath read all five; Save writes V005 (falling back blob-by-blob to
// CPS4, then exact CPS3, when a model's statistics refuse a tier). SaveAs
// keeps the V002/V003/V004 writers for deployments that need bit-exact
// serving or pre-V005 readers.
const (
	saveMagicV1 = "QRECV001"
	saveMagicV2 = "QRECV002"
	saveMagicV3 = "QRECV003"
	saveMagicV4 = "QRECV004"
	saveMagicV5 = "QRECV005"
)

// compiledAlign is the file alignment of the V003/V004 compiled blob. 4 KiB
// covers every common page size; LoadPath additionally aligns the mapping
// down to the runtime page boundary, so larger-page systems still work.
const compiledAlign = 4096

// writeSection emits one length-prefixed section so Load can hand each
// decoder a bounded reader (decoders buffer internally and would otherwise
// read past their section).
func writeSection(w io.Writer, name string, wt io.WriterTo) error {
	var buf bytes.Buffer
	if wt != nil {
		if _, err := wt.WriteTo(&buf); err != nil {
			return fmt.Errorf("core: saving %s: %w", name, err)
		}
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Save persists the recommender — dictionary, interpreted mixture (the build
// artifact) and compiled serving form — in the current V005 layout (the
// compact CPS5 compiled blob, falling back to CPS4/CPS3 when the model's
// statistics refuse a tier). A recommender without a compiled model writes
// an empty compiled section; Load recompiles.
func (r *Engine) Save(w io.Writer) error {
	return r.SaveAs(w, saveMagicV5)
}

// exactComp returns a compiled model carrying exact float64 probabilities,
// as the CPS1 (V002) and CPS3 (V003) writers require: the served model when
// it is exact, a recompilation of the interpreted mixture when the served
// model was loaded from a quantised CPS4 blob (whose raw counts are gone).
// Returns nil when no compiled form can be produced — the caller then
// writes an empty compiled section and Load recompiles.
func (r *Engine) exactComp(mix *markov.MVMM) *compiled.Model {
	if r.comp != nil && r.comp.Exact() {
		return r.comp
	}
	comp, _ := compiled.Compile(mix)
	return comp
}

// SaveAs persists the recommender in a specific save-format version:
// "QRECV005" (the Save default, compact quantised mmap-able compiled
// section), "QRECV004" (quantised mmap-able compiled section), "QRECV003"
// (exact mmap-able compiled section) or "QRECV002" (varint compiled
// section, for files older deployments must read). It exists for
// compatibility tooling and for deployments that need the exact formats'
// bit-identical serving.
func (r *Engine) SaveAs(w io.Writer, version string) error {
	mix := r.Model()
	if mix == nil {
		return fmt.Errorf("core: mixture unavailable for save: %w", r.mixErr)
	}
	switch version {
	case saveMagicV2:
		if _, err := io.WriteString(w, saveMagicV2); err != nil {
			return err
		}
		if err := writeSection(w, "dictionary", r.dict); err != nil {
			return err
		}
		if err := writeSection(w, "model", mix); err != nil {
			return err
		}
		var comp io.WriterTo
		if c := r.exactComp(mix); c != nil {
			comp = c
		}
		return writeSection(w, "compiled model", comp)
	case saveMagicV3, saveMagicV4, saveMagicV5:
		return r.saveFlat(w, mix, version)
	default:
		return fmt.Errorf("core: unknown save version %q", version)
	}
}

// countWriter tracks the file offset so saveFlat can pad the compiled blob
// to a page boundary.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// saveFlat writes the shared V003/V004/V005 layout: magic, dictionary and
// mixture sections as in V002, then the compiled model as a flat blob —
// exact CPS3 under the V003 magic, quantised CPS4 under V004, compact CPS5
// under V005 — padded to start on a compiledAlign boundary, the
// precondition for LoadPath's zero-copy mmap. The blob is framed as (uint64
// pad length, pad, uint64 blob length, blob). A save of a model whose
// statistics do not fit the requested tier (see compiled.ErrUnquantisable)
// falls back one tier at a time — V005 → CPS4 → exact CPS3 — in the same
// container; LoadPath dispatches on the blob's own magic, so nothing
// downstream cares.
func (r *Engine) saveFlat(w io.Writer, mix *markov.MVMM, version string) error {
	cw := &countWriter{w: w}
	if _, err := io.WriteString(cw, version); err != nil {
		return err
	}
	if err := writeSection(cw, "dictionary", r.dict); err != nil {
		return err
	}
	if err := writeSection(cw, "model", mix); err != nil {
		return err
	}
	var blob []byte
	if version == saveMagicV5 && r.comp != nil {
		b5, err := r.comp.AppendFlat5(nil, false)
		if err != nil && !errors.Is(err, compiled.ErrUnquantisable) {
			return fmt.Errorf("core: compacting compiled model: %w", err)
		}
		if err == nil {
			blob = b5
		}
	}
	if len(blob) == 0 && (version == saveMagicV4 || version == saveMagicV5) && r.comp != nil {
		b4, err := r.comp.AppendFlat4(nil)
		if err != nil && !errors.Is(err, compiled.ErrUnquantisable) {
			return fmt.Errorf("core: quantising compiled model: %w", err)
		}
		if err == nil {
			blob = b4
		}
	}
	if len(blob) == 0 {
		if c := r.exactComp(mix); c != nil {
			blob = c.AppendFlat(nil)
		}
	}
	pad := int((compiledAlign - (cw.n+16)%compiledAlign) % compiledAlign)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(pad))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	if pad > 0 {
		if _, err := cw.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(blob)))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := cw.Write(blob)
	return err
}

// Load restores a recommender written by Save from a stream: the current
// V005 layout (compact quantised compiled section decoded into the heap —
// use LoadPath for the zero-copy mmap), the V004 layout, the V003 layout,
// the V002 layout, or the legacy V001 layout (which lacks the compiled
// section — the serving form is then compiled from the mixture on the
// spot).
func Load(rd io.Reader) (*Engine, error) {
	start := time.Now()
	r, info, err := load(rd)
	if err != nil {
		return nil, err
	}
	info.Mode = LoadModeHeap
	info.Duration = time.Since(start)
	r.info = info
	return r, nil
}

func load(rd io.Reader) (*Engine, LoadInfo, error) {
	var info LoadInfo
	magic := make([]byte, len(saveMagicV1))
	if _, err := io.ReadFull(rd, magic); err != nil {
		return nil, info, fmt.Errorf("core: reading header: %w", err)
	}
	version := string(magic)
	info.Version = version
	switch version {
	case saveMagicV1, saveMagicV2, saveMagicV3, saveMagicV4, saveMagicV5:
	default:
		return nil, info, fmt.Errorf("core: unrecognised model file header %q", magic)
	}
	section := func(name string) (io.Reader, uint64, error) {
		var hdr [8]byte
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return nil, 0, fmt.Errorf("core: reading %s header: %w", name, err)
		}
		n := binary.LittleEndian.Uint64(hdr[:])
		if n > 1<<40 {
			return nil, 0, fmt.Errorf("core: implausible %s section of %d bytes", name, n)
		}
		return io.LimitReader(rd, int64(n)), n, nil
	}
	ds, _, err := section("dictionary")
	if err != nil {
		return nil, info, err
	}
	dict, err := query.ReadDict(ds)
	if err != nil {
		return nil, info, fmt.Errorf("core: loading dictionary: %w", err)
	}
	ms, _, err := section("model")
	if err != nil {
		return nil, info, err
	}
	mix, err := markov.ReadMVMM(ms)
	if err != nil {
		return nil, info, fmt.Errorf("core: loading model: %w", err)
	}
	r := &Engine{dict: dict, strs: dict.Publish(), mix: mix, cfg: DefaultConfig()}
	switch version {
	case saveMagicV2:
		cs, n, err := section("compiled model")
		if err != nil {
			return nil, info, err
		}
		if n > 0 {
			comp, err := compiled.Read(cs)
			if err != nil {
				return nil, info, fmt.Errorf("core: loading compiled model: %w", err)
			}
			r.comp = comp
			info.Format = "CPS1"
			info.BlobBytes = int64(n)
			return r, info, nil
		}
	case saveMagicV3, saveMagicV4, saveMagicV5:
		var hdr [8]byte
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return nil, info, fmt.Errorf("core: reading compiled padding header: %w", err)
		}
		pad := binary.LittleEndian.Uint64(hdr[:])
		if pad >= compiledAlign {
			return nil, info, fmt.Errorf("core: implausible compiled-section padding of %d bytes", pad)
		}
		if _, err := io.CopyN(io.Discard, rd, int64(pad)); err != nil {
			return nil, info, fmt.Errorf("core: skipping compiled padding: %w", err)
		}
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return nil, info, fmt.Errorf("core: reading compiled-section header: %w", err)
		}
		blobLen := binary.LittleEndian.Uint64(hdr[:])
		if blobLen > 1<<40 {
			return nil, info, fmt.Errorf("core: implausible compiled section of %d bytes", blobLen)
		}
		if blobLen > 0 {
			blob := make([]byte, blobLen)
			if _, err := io.ReadFull(rd, blob); err != nil {
				return nil, info, fmt.Errorf("core: reading compiled section: %w", err)
			}
			comp, err := compiled.FromBytes(blob, compiled.ViewCopy)
			if err != nil {
				return nil, info, fmt.Errorf("core: loading compiled model: %w", err)
			}
			r.comp = comp
			info.Format = blobFormat(blob)
			info.BlobBytes = int64(blobLen)
			return r, info, nil
		}
	}
	r.comp, _ = compiled.Compile(mix)
	return r, info, nil
}

// blobFormat reports a flat compiled blob's encoding by its leading magic.
func blobFormat(blob []byte) string {
	if len(blob) < 4 {
		return ""
	}
	return string(blob[:4])
}

// LoadPath restores a recommender from a model file on disk, taking the
// fastest load path the file allows. For V003/V004/V005 files the compiled
// serving form is memory-mapped in place — a cold start costs the
// dictionary decode plus O(1) mapping work, the kernel faults trie pages in
// lazily, and concurrent server processes share one page-cache copy — and
// the interpreted mixture is decoded lazily on first Model() use, so a
// process that only serves never pays for it. V001/V002 files (and
// V003/V004/V005 files without a compiled section, or platforms without
// mmap) fall back to the reader-based heap Load. LoadInfo reports which
// path was taken, the blob encoding served (CPS3, quantised CPS4 or
// compact CPS5) and its byte length.
func LoadPath(path string) (*Engine, error) {
	return LoadPathWith(path, LoadOptions{})
}

// LoadOptions tunes LoadPathWith's mmap fast path. The zero value is
// LoadPath's behaviour: plain demand paging.
type LoadOptions struct {
	// MapWillNeed requests madvise(MADV_WILLNEED) on the mapped compiled
	// blob: asynchronous sequential readahead instead of per-page faults on
	// first touch, removing the cold-start latency spike.
	MapWillNeed bool
	// MapLock requests mlock(2) on the mapping: trie pages become
	// unevictable under memory pressure (needs RLIMIT_MEMLOCK headroom).
	MapLock bool
}

// LoadPathWith is LoadPath with explicit load options. Paging hints are
// best-effort: a refused hint degrades to demand paging and the outcome is
// reported in LoadInfo.MapAdvice (and onward through /healthz), never as an
// error.
func LoadPathWith(path string, opts LoadOptions) (*Engine, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The descriptor is retained (not closed) on the successful V003/V004
	// path: the lazy mixture load below reads through it, which pins the
	// inode the compiled form was mapped from — a deploy replacing the file
	// at this path must not make Model() decode a different file's bytes.
	keepOpen := false
	defer func() {
		if !keepOpen {
			f.Close()
		}
	}()
	magic := make([]byte, len(saveMagicV3))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	version := string(magic)
	if version != saveMagicV3 && version != saveMagicV4 && version != saveMagicV5 {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return Load(f)
	}

	readU64At := func(off int64, what string) (uint64, error) {
		var hdr [8]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return 0, fmt.Errorf("core: reading %s: %w", what, err)
		}
		return binary.LittleEndian.Uint64(hdr[:]), nil
	}

	off := int64(len(version))
	dictLen, err := readU64At(off, "dictionary header")
	if err != nil {
		return nil, err
	}
	if dictLen > 1<<40 {
		return nil, fmt.Errorf("core: implausible dictionary section of %d bytes", dictLen)
	}
	dict, err := query.ReadDict(io.NewSectionReader(f, off+8, int64(dictLen)))
	if err != nil {
		return nil, fmt.Errorf("core: loading dictionary: %w", err)
	}
	off += 8 + int64(dictLen)

	mixLen, err := readU64At(off, "model header")
	if err != nil {
		return nil, err
	}
	if mixLen > 1<<40 {
		return nil, fmt.Errorf("core: implausible model section of %d bytes", mixLen)
	}
	mixOff := off + 8
	off += 8 + int64(mixLen)

	pad, err := readU64At(off, "compiled padding header")
	if err != nil {
		return nil, err
	}
	if pad >= compiledAlign {
		return nil, fmt.Errorf("core: implausible compiled-section padding of %d bytes", pad)
	}
	blobLen, err := readU64At(off+8+int64(pad), "compiled-section header")
	if err != nil {
		return nil, err
	}
	blobOff := off + 16 + int64(pad)
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if blobLen > 1<<40 || blobOff+int64(blobLen) > fi.Size() {
		return nil, fmt.Errorf("core: compiled section of %d bytes at offset %d overruns the %d-byte file",
			blobLen, blobOff, fi.Size())
	}
	if blobLen == 0 {
		// No compiled section: recompiling needs the mixture — heap Load.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return Load(f)
	}

	var blobMagic [4]byte
	if _, err := f.ReadAt(blobMagic[:], blobOff); err != nil {
		return nil, fmt.Errorf("core: reading compiled-blob magic: %w", err)
	}

	mode := LoadModeMmap
	comp, err := compiled.OpenMmapAdvised(path, blobOff, int64(blobLen),
		compiled.MapAdvice{WillNeed: opts.MapWillNeed, Lock: opts.MapLock})
	if errors.Is(err, compiled.ErrMmapUnsupported) {
		mode = LoadModeHeap
		blob := make([]byte, blobLen)
		if _, rerr := f.ReadAt(blob, blobOff); rerr != nil {
			return nil, fmt.Errorf("core: reading compiled section: %w", rerr)
		}
		comp, err = compiled.FromBytes(blob, compiled.ViewCopy)
	}
	if err != nil {
		return nil, fmt.Errorf("core: loading compiled model: %w", err)
	}

	r := &Engine{dict: dict, strs: dict.Publish(), comp: comp, cfg: DefaultConfig()}
	r.mixLoad = func() (*markov.MVMM, error) {
		defer f.Close() // runs at most once, under the Model() sync.Once
		mix, err := markov.ReadMVMM(io.NewSectionReader(f, mixOff, int64(mixLen)))
		if err != nil {
			return nil, fmt.Errorf("core: lazily loading mixture: %w", err)
		}
		return mix, nil
	}
	keepOpen = true
	r.info = LoadInfo{
		Mode:      mode,
		Version:   version,
		Format:    blobFormat(blobMagic[:]),
		BlobBytes: int64(blobLen),
		MapAdvice: comp.MapAdvice(),
		Duration:  time.Since(start),
	}
	return r, nil
}
