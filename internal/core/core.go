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
// Persistence: a model file is one container — the dictionary and the
// compiled blob at a page-aligned offset, nothing else. Save writes the blob
// in the compact quantised CPS5 encoding, or in exact CPS3 when the model's
// statistics do not fit it. Load reads a stream into the heap; LoadPath is
// the production cold-start route and memory-maps the blob (no decoding,
// lazy page-in, cross-process page sharing); LoadInfo reports the route
// taken, the blob encoding served and its byte length. The interpreted
// mixture is never written: a loaded Engine serves from the blob alone.
//
// Invariants: an Engine is immutable after training or loading — the
// Recommender methods are safe for unbounded concurrent callers without
// locking, and the Append* variants are allocation-free with recycled
// buffers. Serving goes through the compiled single-PST form whenever it
// exists (always, for mixtures built by this pipeline); a model loaded from
// CPS5 serves with a bounded ≤ ~2e-5 absolute probability error.
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
// K map-based component trees. A trained engine keeps the interpreted
// mixture as the build artifact — evaluation code reads it via Model — and
// should compilation ever fail (it cannot for mixtures built by this
// pipeline) transparently serves from it instead. A loaded engine has the
// compiled form only.
type Engine struct {
	dict *query.Dict
	// strs is dict's published string table, ID → query. Every Engine is
	// made once training is over or the file is read, so the vocabulary is
	// final: the dictionary is published there, and neither context interning
	// nor suggestion strings take its lock from then on.
	strs  []string
	mix   *markov.MVMM    // nil for a loaded engine
	comp  *compiled.Model // nil ⇒ interpreted fallback (trained engines only)
	stats session.Stats
	info  LoadInfo
}

// Model-provenance modes reported by LoadInfo.
const (
	LoadModeTrained = "trained" // built in-process by TrainFrom*
	LoadModeHeap    = "heap"    // decoded from a model file into the heap
	LoadModeMmap    = "mmap"    // compiled form memory-mapped from a model file
)

// LoadInfo describes how the recommender's serving model materialised —
// surfaced through /healthz and cmd/serve logs so cold-start behaviour and
// the served memory footprint are observable in production.
type LoadInfo struct {
	Mode      string        // LoadModeTrained, LoadModeHeap or LoadModeMmap
	Version   string        // save-format magic of the source file, "" if trained
	Format    string        // compiled-blob encoding served ("CPS3" or "CPS5"); "" if compiled in-process
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
	r := &Engine{dict: dict, strs: dict.Publish(), mix: mix, stats: session.Collect(agg),
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
// batched trie descent (compiled.PredictBatch): contexts are grouped by
// shared suffix so sibling lookups amortise cache-line loads, which is what
// makes POST /suggest/batch cheaper than n single requests. Results align
// 1:1 with ctxs; uncovered or empty contexts yield nil entries. Each non-nil
// result slice is freshly allocated (callers cache them).
func (r *Engine) RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]Suggestion {
	out := make([][]Suggestion, len(ctxs))
	if r.comp == nil { // interpreted fallback: no batched descent available
		for i, ctx := range ctxs {
			out[i] = RecommendIDs(r, ctx, ns[i])
		}
		return out
	}
	r.comp.PredictBatch(ctxs, ns, func(i int, preds []model.Prediction) {
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

// Model exposes the interpreted mixture of an engine trained in this process
// (for evaluation), nil for a loaded one: model files do not carry it.
func (r *Engine) Model() *markov.MVMM { return r.mix }

// Close releases resources tied to the serving model — for an engine loaded
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

// saveMagic tags the one model-file container this package reads and writes
// (all integers little-endian):
//
//	magic · uint64 dictionary length · dictionary ·
//	uint64 pad length · pad · uint64 blob length · blob
//
// The pad is zero bytes sized so that the blob starts on a compiledAlign
// boundary, the precondition for LoadPath's zero-copy mmap. The blob is the
// compiled model in compiled.AppendFlat5's CPS5 encoding, or in AppendFlat's
// exact CPS3 when the model's statistics do not fit CPS5
// (compiled.ErrUnquantisable); loaders dispatch on the blob's own magic. A
// file with any other magic, those of earlier revisions of this repository
// included, is refused: retrain.
const saveMagic = "QRECV006"

// compiledAlign is the file alignment of the compiled blob. 4 KiB covers
// every common page size; compiled.OpenMmap additionally aligns the mapping
// down to the runtime page boundary, so larger-page systems still work.
const compiledAlign = 4096

// maxSectionBytes is the largest section length a file may claim. It only
// rejects nonsense early: no allocation is ever sized by a length word.
const maxSectionBytes = 1 << 40

// writeSection emits one length-prefixed section so loaders can hand each
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

// readU64 reads one little-endian length word.
func readU64(rd io.Reader, what string) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(rd, b[:]); err != nil {
		return 0, fmt.Errorf("core: reading %s: %w", what, err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// section reads the length prefix writeSection wrote and returns a reader
// bounded to the section, with the length.
func section(rd io.Reader, name string) (io.Reader, uint64, error) {
	n, err := readU64(rd, name+" header")
	if err != nil {
		return nil, 0, err
	}
	if n > maxSectionBytes {
		return nil, 0, fmt.Errorf("core: implausible %s section of %d bytes", name, n)
	}
	return io.LimitReader(rd, int64(n)), n, nil
}

// Save persists the recommender — dictionary and compiled serving form — as
// one model file (see saveMagic for the layout). A loaded engine re-emits the
// blob it serves. An engine without a compiled form has nothing a server
// could load and is refused.
func (r *Engine) Save(w io.Writer) error {
	if r.comp == nil {
		return errors.New("core: engine has no compiled model to save")
	}
	blob, err := r.comp.AppendFlat5(nil)
	if errors.Is(err, compiled.ErrUnquantisable) {
		blob, err = r.comp.AppendFlat(nil), nil
	}
	if err != nil {
		return fmt.Errorf("core: encoding compiled model: %w", err)
	}
	var hdr bytes.Buffer
	hdr.WriteString(saveMagic)
	if err := writeSection(&hdr, "dictionary", r.dict); err != nil {
		return err
	}
	le := binary.LittleEndian
	pad := (compiledAlign - (hdr.Len()+16)%compiledAlign) % compiledAlign
	hdr.Write(le.AppendUint64(nil, uint64(pad)))
	hdr.Write(make([]byte, pad))
	hdr.Write(le.AppendUint64(nil, uint64(len(blob))))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// fileHeader is what a model file holds ahead of its blob.
type fileHeader struct {
	dict    *query.Dict
	blobOff int64 // file offset of the blob's first byte
	blobLen uint64
}

// readHeader parses a model file up to its blob and leaves rd on the blob's
// first byte. Load and LoadPathWith both start here.
func readHeader(rd io.Reader) (fileHeader, error) {
	var h fileHeader
	magic := make([]byte, len(saveMagic))
	if _, err := io.ReadFull(rd, magic); err != nil {
		return h, fmt.Errorf("core: reading header: %w", err)
	}
	if string(magic) != saveMagic {
		return h, fmt.Errorf("core: unrecognised model file header %q (this build reads %s only): retrain", magic, saveMagic)
	}
	ds, dictLen, err := section(rd, "dictionary")
	if err != nil {
		return h, err
	}
	if h.dict, err = query.ReadDict(ds); err != nil {
		return h, fmt.Errorf("core: loading dictionary: %w", err)
	}
	// The decoder's read-ahead may stop short of the section's end.
	if _, err := io.Copy(io.Discard, ds); err != nil {
		return h, fmt.Errorf("core: skipping to the end of the dictionary section: %w", err)
	}
	pad, err := readU64(rd, "padding length")
	if err != nil {
		return h, err
	}
	h.blobOff = int64(len(saveMagic)) + 8 + int64(dictLen) + 8 + int64(pad) + 8
	if pad >= compiledAlign || h.blobOff%compiledAlign != 0 {
		return h, fmt.Errorf("core: padding of %d bytes does not page-align the compiled blob", pad)
	}
	if _, err := io.CopyN(io.Discard, rd, int64(pad)); err != nil {
		return h, fmt.Errorf("core: skipping padding: %w", err)
	}
	if h.blobLen, err = readU64(rd, "compiled-blob length"); err != nil {
		return h, err
	}
	if h.blobLen == 0 || h.blobLen > maxSectionBytes {
		return h, fmt.Errorf("core: implausible compiled blob of %d bytes", h.blobLen)
	}
	return h, nil
}

// readBlob reads the n-byte blob rd is positioned on into the heap. The
// buffer grows as bytes arrive instead of being sized by n: n is the file's
// word, and a forged one must cost no more memory than the stream holds.
func readBlob(rd io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	got, err := io.Copy(&buf, io.LimitReader(rd, int64(n)))
	if err == nil && uint64(got) != n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading compiled blob (%d of %d bytes): %w", got, n, err)
	}
	return buf.Bytes(), nil
}

// loaded assembles the Engine a model file yields.
func loaded(h fileHeader, comp *compiled.Model, mode string, start time.Time) *Engine {
	format := "CPS3"
	if comp.Quantised() {
		format = "CPS5"
	}
	return &Engine{dict: h.dict, strs: h.dict.Publish(), comp: comp, info: LoadInfo{
		Mode:      mode,
		Version:   saveMagic,
		Format:    format,
		BlobBytes: int64(h.blobLen),
		MapAdvice: comp.MapAdvice(),
		Duration:  time.Since(start),
	}}
}

// Load restores a recommender written by Save from a stream, decoding the
// compiled blob into the heap and verifying its checksum — use LoadPath for
// the zero-copy mmap.
func Load(rd io.Reader) (*Engine, error) {
	start := time.Now()
	h, err := readHeader(rd)
	if err != nil {
		return nil, err
	}
	blob, err := readBlob(rd, h.blobLen)
	if err != nil {
		return nil, err
	}
	comp, err := compiled.FromBytes(blob, compiled.ViewCopy)
	if err != nil {
		return nil, fmt.Errorf("core: loading compiled model: %w", err)
	}
	return loaded(h, comp, LoadModeHeap, start), nil
}

// LoadPath restores a recommender from a model file on disk with the
// compiled serving form memory-mapped in place: a cold start costs the
// dictionary decode plus O(1) mapping work, the kernel faults trie pages in
// lazily, and concurrent server processes share one page-cache copy. On
// platforms without mmap the blob is decoded into the heap as Load does.
// LoadInfo reports which path was taken, the blob encoding served (compact
// CPS5 or exact CPS3) and its byte length.
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
	defer f.Close()
	h, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	mode := LoadModeMmap
	// OpenMmapAdvised refuses a window that overruns the file.
	comp, err := compiled.OpenMmapAdvised(path, h.blobOff, int64(h.blobLen),
		compiled.MapAdvice{WillNeed: opts.MapWillNeed, Lock: opts.MapLock})
	if errors.Is(err, compiled.ErrMmapUnsupported) {
		mode = LoadModeHeap
		var blob []byte
		if blob, err = readBlob(f, h.blobLen); err != nil {
			return nil, err
		}
		comp, err = compiled.FromBytes(blob, compiled.ViewCopy)
	}
	if err != nil {
		return nil, fmt.Errorf("core: loading compiled model: %w", err)
	}
	return loaded(h, comp, mode, start), nil
}
