// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates the corresponding
// result on a shared small corpus and reports the headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. cmd/experiments runs the same computations at full scale with
// rendered tables.
package repro_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/loggen"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/pairwise"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/store"
)

var (
	benchOnce   sync.Once
	benchCorpus *experiments.Corpus
	benchModels *experiments.Models
	benchErr    error
)

func benchSetup(b *testing.B) (*experiments.Corpus, *experiments.Models) {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus, benchErr = experiments.BuildCorpus(experiments.SmallCorpusConfig())
		if benchErr == nil {
			benchModels, benchErr = experiments.TrainModels(benchCorpus)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCorpus, benchModels
}

// BenchmarkFig1PatternDistribution classifies 20k sessions into the seven
// pattern types (Fig. 1) and reports the order-sensitive share.
func BenchmarkFig1PatternDistribution(b *testing.B) {
	c, _ := benchSetup(b)
	var r experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig1(c, 20000)
	}
	b.ReportMetric(r.OrderSensitive, "order-sensitive-share")
}

// BenchmarkFig2Entropy computes the entropy-vs-context-length curve and
// reports the drop from no context to 4 queries of context.
func BenchmarkFig2Entropy(b *testing.B) {
	c, _ := benchSetup(b)
	var r experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2(c)
	}
	b.ReportMetric(r.Entropy[0]-r.Entropy[4], "entropy-drop-log10")
}

// BenchmarkTable4SessionStats collects the Table IV summary statistics.
func BenchmarkTable4SessionStats(b *testing.B) {
	c, _ := benchSetup(b)
	var r experiments.Table4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table4(c)
	}
	b.ReportMetric(r.Train.MeanLength(), "mean-session-length")
}

// BenchmarkFig5LengthHistogram builds the pre-reduction length histograms.
func BenchmarkFig5LengthHistogram(b *testing.B) {
	c, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig5(c)
	}
}

// BenchmarkFig6PowerLaw fits the aggregated-session rank/frequency power law
// and reports the training slope.
func BenchmarkFig6PowerLaw(b *testing.B) {
	c, _ := benchSetup(b)
	var r experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6(c)
	}
	b.ReportMetric(-r.TrainSlope, "neg-loglog-slope")
	b.ReportMetric(r.TrainR2, "r-squared")
}

// BenchmarkFig7Reduction re-runs data reduction and the post-reduction
// histograms, reporting retained session mass.
func BenchmarkFig7Reduction(b *testing.B) {
	c, _ := benchSetup(b)
	var r experiments.HistResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(c)
	}
	b.ReportMetric(r.RetainedMass, "retained-mass")
}

// BenchmarkFig8Accuracy evaluates the pair-wise vs sequence NDCG@5 panel and
// reports the MVMM-over-Adjacency advantage at context length 2.
func BenchmarkFig8Accuracy(b *testing.B) {
	c, m := benchSetup(b)
	var panel experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		panel = experiments.Accuracy(c, m.Fig8Set(), 5)
	}
	idx := map[string]int{}
	for i, name := range panel.Models {
		idx[name] = i
	}
	b.ReportMetric(panel.NDCG[idx["MVMM"]][1]-panel.NDCG[idx["Adjacency"]][1], "mvmm-minus-adj-len2")
}

// BenchmarkFig9MVMMvsVMM evaluates the MVMM-vs-VMM NDCG@5 panel and reports
// MVMM's mean NDCG across context lengths.
func BenchmarkFig9MVMMvsVMM(b *testing.B) {
	c, m := benchSetup(b)
	var panel experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		panel = experiments.Accuracy(c, m.Fig9Set(), 5)
	}
	var mean float64
	for _, v := range panel.NDCG[0] {
		mean += v
	}
	b.ReportMetric(mean/float64(len(panel.NDCG[0])), "mvmm-mean-ndcg5")
}

// BenchmarkFig10Coverage measures overall coverage and reports MVMM's.
func BenchmarkFig10Coverage(b *testing.B) {
	c, m := benchSetup(b)
	var r experiments.CoverageResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10(c, m)
	}
	for i, name := range r.Models {
		if name == "MVMM" {
			b.ReportMetric(r.Coverage[i], "mvmm-coverage")
		}
	}
}

// BenchmarkFig11CoverageByLength measures the coverage decay curves and
// reports the N-gram length-4 / length-1 ratio (the collapse).
func BenchmarkFig11CoverageByLength(b *testing.B) {
	c, m := benchSetup(b)
	var r experiments.CoverageByLenResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11(c, m)
	}
	for i, name := range r.Models {
		if name == "N-gram" && r.Coverage[i][0] > 0 {
			b.ReportMetric(r.Coverage[i][3]/r.Coverage[i][0], "ngram-len4-over-len1")
		}
	}
}

// BenchmarkTable6Reasons tallies the unpredictability-reason taxonomy.
func BenchmarkTable6Reasons(b *testing.B) {
	c, m := benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Table6(c, m)
	}
}

// BenchmarkTable7Memory serializes every model and reports the MVMM/VMM
// footprint ratio (paper: marginally more than a single VMM when merged).
func BenchmarkTable7Memory(b *testing.B) {
	_, m := benchSetup(b)
	var r experiments.Table7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Table7(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	size := map[string]int64{}
	for i, name := range r.Models {
		size[name] = r.Bytes[i]
	}
	if size["VMM (0)"] > 0 {
		b.ReportMetric(float64(r.MVMMUnion)/float64(r.VMM00Size), "union-over-fulltree-nodes")
	}
}

// BenchmarkFig12TrainingTime runs the training-time scaling sweep and
// reports the worst max/min time-per-session ratio (1 = perfectly linear).
func BenchmarkFig12TrainingTime(b *testing.B) {
	c, _ := benchSetup(b)
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12(c)
	}
	worst := 0.0
	for i := range r.Models {
		if ratio := r.LinearityRatio(i); ratio > worst {
			worst = ratio
		}
	}
	b.ReportMetric(worst, "worst-linearity-ratio")
}

// BenchmarkTable8UserStudy runs the simulated user evaluation (Table VIII,
// Figs. 13-14) and reports MVMM's precision.
func BenchmarkTable8UserStudy(b *testing.B) {
	c, m := benchSetup(b)
	var r experiments.StudyResult
	for i := 0; i < b.N; i++ {
		r = experiments.UserStudy(c, m, 200)
	}
	for _, ms := range r.Methods {
		if ms.Name == "MVMM" {
			b.ReportMetric(ms.Precision(), "mvmm-precision")
		}
	}
}

// --- micro-benchmarks for the core operations -------------------------------

// BenchmarkTrainVMM measures single-VMM training throughput.
func BenchmarkTrainVMM(b *testing.B) {
	c, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markov.NewVMM(c.TrainAgg, markov.VMMConfig{Epsilon: 0.05, Vocab: c.Vocab()})
	}
	b.ReportMetric(float64(len(c.TrainAgg)), "sessions")
}

// BenchmarkTrainAdjacency measures baseline training throughput.
func BenchmarkTrainAdjacency(b *testing.B) {
	c, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairwise.NewAdjacency(c.TrainAgg, c.Vocab())
	}
}

// BenchmarkPredictMVMM measures online prediction latency — the paper's
// O(D) real-time claim (Sec. V.G: "constant time in D").
func BenchmarkPredictMVMM(b *testing.B) {
	c, m := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MVMM.Predict(ctxs[i%len(ctxs)], 5)
	}
}

// BenchmarkPredictVMM measures single-VMM prediction latency.
func BenchmarkPredictVMM(b *testing.B) {
	c, m := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VMM05.Predict(ctxs[i%len(ctxs)], 5)
	}
}

// BenchmarkLogLossMVMM measures Eq. (1) evaluation throughput.
func BenchmarkLogLossMVMM(b *testing.B) {
	c, m := benchSetup(b)
	sample := c.TestAgg
	if len(sample) > 500 {
		sample = sample[:500]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.LogLoss(m.MVMM, sample, c.Vocab())
	}
}

// BenchmarkSerializeMVMM measures model persistence cost.
func BenchmarkSerializeMVMM(b *testing.B) {
	_, m := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Footprint(m.MVMM); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogGeneration measures synthetic-log throughput (records/op).
func BenchmarkLogGeneration(b *testing.B) {
	cfg := loggen.DefaultConfig()
	cfg.Universe.Topics = 60
	gen, err := loggen.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := gen.Session()
		_ = gen.Records(ls)
	}
}

// BenchmarkSeqKey measures the hot sequence-encoding path.
func BenchmarkSeqKey(b *testing.B) {
	s := query.Seq{1, 2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

// --- serving-layer benchmarks ------------------------------------------------

var (
	serveBenchOnce sync.Once
	serveBenchRec  core.Recommender
	serveBenchCtxs [][]string
)

// serveBenchSetup trains an end-to-end recommender on the shared corpus and
// renders a pool of realistic string contexts for the serving benchmarks.
// The mixture uses the paper's full eleven-component ε set — the model the
// deployment claims are about, and the one the compiled single PST merges.
func serveBenchSetup(b *testing.B) (core.Recommender, [][]string) {
	b.Helper()
	c, _ := benchSetup(b)
	serveBenchOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Epsilons = markov.DefaultEpsilons()
		cfg.Mixture.TrainSample = 500
		cfg.Mixture.NewtonIters = 10
		var err error
		if serveBenchRec, err = core.TrainFromAggregated(c.Dict, c.TrainAgg, cfg); err != nil {
			b.Fatal(err)
		}
		for _, ctx := range c.TestContexts(2, 256) {
			qs := make([]string, len(ctx))
			for i, id := range ctx {
				qs[i] = c.Dict.String(id)
			}
			serveBenchCtxs = append(serveBenchCtxs, qs)
		}
	})
	if len(serveBenchCtxs) == 0 {
		b.Skip("no serving contexts")
	}
	return serveBenchRec, serveBenchCtxs
}

// BenchmarkSuggestUncached is the raw model hot path under parallel load:
// every request interns its context and runs the full prediction (through
// the compiled PST since PR 2).
func BenchmarkSuggestUncached(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 31
		for pb.Next() {
			core.Recommend(rec, ctxs[i%len(ctxs)], 5)
			i++
		}
	})
}

// BenchmarkRecommendUncached is the steady-state uncached predict path the
// compiled PST was built for: contexts are pre-interned (as the cache front
// does per request) and suggestions land in a recycled buffer, so ns/op is
// pure model work. Its zero allocations are pinned by
// TestAppendSuggestionsZeroAllocs (internal/core) on a mapped model file.
func BenchmarkRecommendUncached(b *testing.B) {
	rec, _ := serveBenchSetup(b)
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	if rec.CompiledModel() == nil {
		b.Fatal("recommender did not compile")
	}
	buf := make([]core.Suggestion, 0, 8)
	for _, ctx := range ctxs { // warm the model's scratch pool
		buf = rec.AppendSuggestions(buf[:0], ctx, 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rec.AppendSuggestions(buf[:0], ctxs[i%len(ctxs)], 5)
	}
}

// BenchmarkRecommendUncachedInterpreted is the same workload forced through
// the interpreted MVMM — the before side of the compiled-PST comparison.
func BenchmarkRecommendUncachedInterpreted(b *testing.B) {
	rec, _ := serveBenchSetup(b)
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	mix := rec.(*core.Engine).Model()
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 31
		for pb.Next() {
			mix.Predict(ctxs[i%len(ctxs)], 5)
			i++
		}
	})
}

// BenchmarkPredictCompiled measures the compiled single-PST descent alone
// (the successor of BenchmarkPredictMVMM's interpreted walk).
func BenchmarkPredictCompiled(b *testing.B) {
	rec, _ := serveBenchSetup(b)
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	cm := rec.CompiledModel()
	if cm == nil {
		b.Fatal("recommender did not compile")
	}
	buf := make([]model.Prediction, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cm.AppendPredictions(buf[:0], ctxs[i%len(ctxs)], 5)
	}
}

// BenchmarkProbCompiled measures the allocation-free mixture probability.
func BenchmarkProbCompiled(b *testing.B) {
	rec, _ := serveBenchSetup(b)
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	cm := rec.CompiledModel()
	if cm == nil {
		b.Fatal("recommender did not compile")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := ctxs[i%len(ctxs)]
		cm.Prob(ctx, ctx[len(ctx)-1])
	}
}

// BenchmarkSuggestCached is the same workload through the sharded LRU front
// on repeated contexts — the serving layer's steady state, where the cache
// must beat the uncached path by well over 2x across cores.
func BenchmarkSuggestCached(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	sc := cache.NewSuggestCache(0)
	var ids query.Seq
	for range 2 { // warm the cache: each context is stored on its second sight
		for _, ctx := range ctxs {
			ids = core.AppendContext(rec.Dict(), ids[:0], ctx)
			sc.RecommendSlotHit(0, 1, rec, ids, 5)
		}
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 31
		var ids query.Seq
		for pb.Next() {
			ids = core.AppendContext(rec.Dict(), ids[:0], ctxs[i%len(ctxs)])
			sc.RecommendSlotHit(0, 1, rec, ids, 5)
			i++
		}
	})
	b.ReportMetric(sc.Stats().HitRate(), "hit-rate")
}

// benchRecorder is a minimal ResponseWriter with recyclable buffers, so
// BenchmarkServeHTTPBatch measures the handler stack rather than
// httptest.NewRecorder's per-request allocations.
type benchRecorder struct {
	code   int
	header http.Header
	body   []byte
}

func (r *benchRecorder) Header() http.Header { return r.header }
func (r *benchRecorder) WriteHeader(c int) {
	if r.code == 0 {
		r.code = c
	}
}
func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}
func (r *benchRecorder) reset() {
	r.code = 0
	r.body = r.body[:0]
}

// BenchmarkServeHTTPBatch measures POST /suggest/batch end to end with
// 64-context requests: JSON decode, cache front, one batched trie descent
// for the misses, append-encoded response. ns/op is per batch.
func BenchmarkServeHTTPBatch(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	h := serve.New(rec, serve.Options{})
	req := serve.BatchRequest{Requests: make([]serve.BatchItem, 64)}
	for i := range req.Requests {
		req.Requests[i] = serve.BatchItem{Context: ctxs[(i*7)%len(ctxs)], N: 5}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rr := &benchRecorder{header: make(http.Header, 4)}
		for pb.Next() {
			hr := httptest.NewRequest(http.MethodPost, "/suggest/batch", bytes.NewReader(body))
			rr.reset()
			h.ServeHTTP(rr, hr)
			if rr.code != http.StatusOK {
				b.Fatalf("status %d: %s", rr.code, rr.body)
			}
		}
	})
	b.ReportMetric(64, "contexts/op")
}

// --- batched-descent benchmarks ---------------------------------------------

// batchBenchDraw returns a draw of test contexts with the skew real batch
// traffic has (power-law head repetition — the same shape cmd/loadgen
// replays), so a batch of them holds both repeated and distinct contexts.
func batchBenchDraw(b *testing.B) func() query.Seq {
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) < 64 {
		b.Skip("not enough contexts")
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(3)), 1.2, 8, uint64(len(ctxs)-1))
	return func() query.Seq { return ctxs[zipf.Uint64()] }
}

// batchBenchInputs draws one 64-context batch, n = 5 each.
func batchBenchInputs(b *testing.B) (*compiled.Model, []query.Seq, []int) {
	rec, _ := serveBenchSetup(b)
	cm := rec.CompiledModel()
	if cm == nil {
		b.Fatal("recommender did not compile")
	}
	draw := batchBenchDraw(b)
	batch := make([]query.Seq, 64)
	ns := make([]int, 64)
	for i := range batch {
		batch[i] = draw()
		ns[i] = 5
	}
	return cm, batch, ns
}

// BenchmarkPredictBatch64 scores a 64-context batch through
// compiled.PredictBatch, one pooled scratch for the batch; compare
// ns/context with BenchmarkPredictSequential64, the same work as 64 single
// calls.
func BenchmarkPredictBatch64(b *testing.B) {
	cm, ctxs, ns := batchBenchInputs(b)
	sink := 0
	emit := func(i int, preds []model.Prediction) { sink += len(preds) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.PredictBatch(ctxs, ns, emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/context")
	if sink == 0 {
		b.Fatal("batch produced no predictions")
	}
}

// BenchmarkBatchDuplicateMisses counts what scoring a batch's duplicates
// once could save behind a result cache: the misses that repeat an earlier
// miss of the same batch. It draws 256 batch-64s the way batchBenchInputs
// does and serves them, twice, through a SuggestCache holding 1/4 of the
// distinct contexts drawn; over the second pass (the first warms the cache)
// it reports misses and duplicate misses per context. The counts, not
// ns/op, are its result (ARCHITECTURE §4).
func BenchmarkBatchDuplicateMisses(b *testing.B) {
	rec, _ := serveBenchSetup(b)
	draw := batchBenchDraw(b)
	stream := make([]query.Seq, 256*64)
	distinct := make(map[string]bool)
	for i := range stream {
		stream[i] = draw()
		distinct[stream[i].Key()] = true
	}
	ns := make([]int, 64)
	for i := range ns {
		ns[i] = 5
	}
	out := make([][]core.Suggestion, 64)
	var mc *missCounter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc = &missCounter{Recommender: rec, seen: make(map[string]bool)}
		sc := cache.NewSuggestCache(len(distinct) / 4)
		for pass := 0; pass < 2; pass++ {
			mc.counting = pass == 1
			for lo := 0; lo < len(stream); lo += 64 {
				sc.RecommendBatchSlot(0, 1, mc, stream[lo:lo+64], ns, out)
			}
		}
	}
	b.ReportMetric(float64(len(distinct)), "distinct-ctxs")
	b.ReportMetric(float64(mc.misses)/float64(len(stream)), "misses/ctx")
	b.ReportMetric(float64(mc.dups)/float64(len(stream)), "dup-misses/ctx")
	b.ReportMetric(float64(mc.dups)/float64(max(mc.misses, 1)), "dup-misses/miss")
}

// missCounter is a Recommender that counts, while counting is set, the
// contexts a SuggestCache sends it to score and, of those, the ones an
// earlier context of the same call repeats. (Its callers ask for one n.)
type missCounter struct {
	core.Recommender
	counting     bool
	misses, dups int
	seen         map[string]bool
}

func (m *missCounter) AppendBatchSuggestions(dst []core.Suggestion, ends []int, ctxs []query.Seq, ns []int) ([]core.Suggestion, []int) {
	if m.counting {
		clear(m.seen)
		for _, ctx := range ctxs {
			k := ctx.Key()
			if m.seen[k] {
				m.dups++
			}
			m.seen[k] = true
		}
		m.misses += len(ctxs)
	}
	return m.Recommender.AppendBatchSuggestions(dst, ends, ctxs, ns)
}

// BenchmarkPredictSequential64 is the other side of the PredictBatch64
// comparison: the same 64 contexts predicted one AppendPredictions call at a
// time, each taking its own scratch from the pool.
func BenchmarkPredictSequential64(b *testing.B) {
	cm, ctxs, ns := batchBenchInputs(b)
	buf := make([]model.Prediction, 0, 8)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, ctx := range ctxs {
			buf = cm.AppendPredictions(buf[:0], ctx, ns[j])
			sink += len(buf)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/context")
	if sink == 0 {
		b.Fatal("no predictions")
	}
}

// BenchmarkPredictBatch64Parallel is the same 64-context batch cut into
// contiguous chunks across GOMAXPROCS workers. Answers are bit-identical to
// BenchmarkPredictBatch64. The fan-out has not shown a steady gain at this
// size: the end-to-end benchmark's compiled.batch_parallel_x (sequential ÷
// parallel, 2 workers) has read 0.66, 1.22 and 1.06 on unchanged code, a
// reading of the host rather than of the code, so nothing serves through it
// (ROADMAP, "Benchmark-PR-only work").
func BenchmarkPredictBatch64Parallel(b *testing.B) {
	cm, ctxs, ns := batchBenchInputs(b)
	var sink atomic.Int64
	emit := func(i int, preds []model.Prediction) { sink.Add(int64(len(preds))) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.PredictBatchParallel(ctxs, ns, 0, emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/context")
	if sink.Load() == 0 {
		b.Fatal("batch produced no predictions")
	}
}

// --- cold-start benchmarks ---------------------------------------------------

var (
	coldOnce sync.Once
	coldPath string
	coldErr  error
)

// coldStartSetup saves the serving benchmark model once as a model file.
func coldStartSetup(b *testing.B) string {
	rec, _ := serveBenchSetup(b)
	coldOnce.Do(func() {
		dir, err := os.MkdirTemp("", "repro-coldstart")
		if err != nil {
			coldErr = err
			return
		}
		coldPath = filepath.Join(dir, "model.bin")
		f, err := os.Create(coldPath)
		if err != nil {
			coldErr = err
			return
		}
		if err := rec.(*core.Engine).Save(f); err != nil {
			f.Close()
			coldErr = err
			return
		}
		coldErr = f.Close()
	})
	if coldErr != nil {
		b.Fatal(coldErr)
	}
	return coldPath
}

// BenchmarkColdStartHeap is the before side of the mmap comparison: a stream
// Load — dictionary decode, then the blob read, checksummed and decoded into
// freshly allocated heap slices.
func BenchmarkColdStartHeap(b *testing.B) {
	path := coldStartSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := core.Load(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rec.CompiledModel() == nil || rec.LoadInfo().Mode != core.LoadModeHeap {
			b.Fatalf("unexpected load: %+v", rec.LoadInfo())
		}
	}
}

// BenchmarkColdStartMmap is the after side: LoadPath — dictionary decode
// plus an mmap of the blob, of which only the CSR offsets are varint-decoded
// eagerly; follower edges stay packed until a descent touches their node and
// trie pages fault in lazily.
func BenchmarkColdStartMmap(b *testing.B) {
	path := coldStartSetup(b)
	if _, err := core.LoadPath(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := core.LoadPath(path)
		if err != nil {
			b.Fatal(err)
		}
		if cm := rec.CompiledModel(); cm == nil || !cm.Quantised() {
			b.Fatal("no quantised compiled model")
		}
		// Release the mapping eagerly: thousands of live mappings would trip
		// vm.max_map_count long before the GC ran any cleanups.
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- future-work extension benchmark ----------------------------------------

// BenchmarkExtensionDrift measures the retraining-frequency analysis and
// reports the final-slice coverage advantage of retraining.
func BenchmarkExtensionDrift(b *testing.B) {
	c, _ := benchSetup(b)
	var r experiments.DriftResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Drift(c, 2, 1500)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := r.Slices - 1
	b.ReportMetric(r.RetrCov[last]-r.StaleCov[last], "retrain-coverage-gain")
}
