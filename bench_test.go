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
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/hmm"
	"repro/internal/logfmt"
	"repro/internal/loggen"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairwise"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
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
			benchModels = experiments.TrainModels(benchCorpus)
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
		serveBenchRec = core.TrainFromAggregated(c.Dict, c.TrainAgg, cfg)
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
// pure model work and allocs/op must be zero — CI gates it there: the
// prediction scratch is an array on AppendSuggestions' own stack, and an
// allocation means it escaped. Serial and warmed so the count is the hot
// path's own at any -benchtime and GOMAXPROCS.
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

// BenchmarkPredictCPS5 measures the compiled descent on the compact CPS5
// form a model file carries — fixed-point probabilities, varint-delta
// follower IDs decoded lazily per matched node. allocs/op must stay 0.
func BenchmarkPredictCPS5(b *testing.B) {
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
	blob, err := cm.AppendFlat5(nil)
	if err != nil {
		b.Fatal(err)
	}
	qm, err := compiled.FromBytes(blob, compiled.ViewAuto)
	if err != nil {
		b.Fatal(err)
	}
	if !qm.Quantised() {
		b.Fatal("CPS5 load is not quantised")
	}
	buf := make([]model.Prediction, 0, 8)
	for _, ctx := range ctxs { // warm the scratch pool to steady state
		buf = qm.AppendPredictions(buf[:0], ctx, 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = qm.AppendPredictions(buf[:0], ctxs[i%len(ctxs)], 5)
	}
}

// BenchmarkPredictHMM measures the HMM family arm's serving primitive — the
// pooled-scratch forward pass behind PredictInto — on the shared corpus.
// allocs/op must stay 0: the Predictor contract every fleet arm advertises
// through Shape().ZeroAlloc is benchmark-gated here.
func BenchmarkPredictHMM(b *testing.B) {
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	cfg := hmm.DefaultConfig(c.Vocab())
	cfg.States = 8
	cfg.Iterations = 4
	m, err := hmm.Train(c.TrainAgg, cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]model.Prediction, 0, 8)
	for _, ctx := range ctxs { // warm the scratch pool to steady state
		buf = m.PredictInto(buf[:0], ctx, 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.PredictInto(buf[:0], ctxs[i%len(ctxs)], 5)
	}
}

// BenchmarkRerankPairwise measures the optional second-stage pairwise rerank
// on a champion top-5 answer — the per-request cost of enabling -rerank on a
// fleet arm. allocs/op must stay 0 (pooled blend scratch, recycled dst).
func BenchmarkRerankPairwise(b *testing.B) {
	rec, _ := serveBenchSetup(b)
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) == 0 {
		b.Skip("no contexts")
	}
	adj := pairwise.NewAdjacency(c.TrainAgg, c.Vocab())
	rk, err := fleet.NewPairwiseReranker(adj, rec.Dict(), fleet.DefaultRerankLambda)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-compute the champion answers being reranked (the rerank step's
	// input is a cache-owned immutable slice on the serving path).
	recs := make([][]core.Suggestion, len(ctxs))
	for i, ctx := range ctxs {
		recs[i] = core.RecommendIDs(rec, ctx, 5)
	}
	dst := make([]core.Suggestion, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ctxs)
		dst = rk.Rerank(ctxs[j], recs[j], dst[:0])
	}
}

// BenchmarkCompiledBlobSize re-encodes the benchmark model in both blob
// encodings and reports their byte sizes plus the CPS5/CPS3 ratio — the
// Table VII serving-footprint numbers, gated by `make bench-gates` (the
// compact blob must stay under 0.48 of the exact one).
func BenchmarkCompiledBlobSize(b *testing.B) {
	rec, _ := serveBenchSetup(b)
	cm := rec.CompiledModel()
	if cm == nil {
		b.Fatal("recommender did not compile")
	}
	var cps3, cps5 int
	for i := 0; i < b.N; i++ {
		blob3 := cm.AppendFlat(nil)
		blob5, err := cm.AppendFlat5(nil)
		if err != nil {
			b.Fatal(err)
		}
		cps3, cps5 = len(blob3), len(blob5)
	}
	b.ReportMetric(float64(cps3), "cps3-bytes")
	b.ReportMetric(float64(cps5), "cps5-bytes")
	b.ReportMetric(float64(cps5)/float64(cps3), "cps5-over-cps3")
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
	for _, ctx := range ctxs { // warm the cache once
		sc.Recommend(1, rec, ctx, 5)
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 31
		for pb.Next() {
			sc.Recommend(1, rec, ctxs[i%len(ctxs)], 5)
			i++
		}
	})
	b.ReportMetric(sc.Stats().HitRate(), "hit-rate")
}

// benchRecorder is a minimal ResponseWriter with recyclable buffers, so the
// serving benchmarks measure the handler stack rather than
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

// BenchmarkServeHTTPCached measures the full handler stack (routing,
// middleware, cache, JSON encoding) on a hot context without network
// overhead — the zero-allocation serving path's headline number.
func BenchmarkServeHTTPCached(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	h := serve.NewHandler(rec, 5)
	target := "/suggest?q=" + url.QueryEscape(ctxs[0][0])
	// Warm past the tracer's 256-trace retention ring: while it fills,
	// every request's finish pins its pooled trace and the pool allocates a
	// replacement, which would dominate allocs/op under CI's short
	// -benchtime. At steady state retention is a pointer swap.
	warmReq := httptest.NewRequest(http.MethodGet, target, nil)
	warmRR := &benchRecorder{header: make(http.Header, 4)}
	for i := 0; i < 300; i++ {
		warmRR.reset()
		h.ServeHTTP(warmRR, warmReq)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rr := &benchRecorder{header: make(http.Header, 4)}
		for pb.Next() {
			rr.reset()
			h.ServeHTTP(rr, req)
			if rr.code != http.StatusOK {
				b.Fatalf("status %d", rr.code)
			}
		}
	})
}

// BenchmarkRouteAB measures the fleet A/B serving path end to end: the full
// handler stack of BenchmarkServeHTTPCached plus interning against the
// router's base dictionary, the sticky weighted arm choice, per-arm metrics
// and the X-Serve-Arm response label, over a pool of hot contexts that
// exercises both arms. The A/B hot path must stay zero-allocation — CI gates
// allocs/op at 0.
func BenchmarkRouteAB(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	reg := fleet.NewRegistry(0)
	if _, err := reg.Add("champion", rec, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Add("challenger", rec, nil); err != nil {
		b.Fatal(err)
	}
	rt, err := fleet.NewRouter(reg,
		fleet.ArmSpec{Name: "champion", Weight: 9},
		fleet.ArmSpec{Name: "challenger", Weight: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	h := serve.New(rec, serve.Options{DefaultN: 5, Fleet: rt})

	targets := make([]string, 0, 16)
	for i := 0; i < 16 && i < len(ctxs); i++ {
		targets = append(targets, "/suggest?q="+url.QueryEscape(ctxs[i][0]))
	}
	// Requests are built once and shared (the handler never mutates them),
	// and every target is served enough times up front to fill the cache,
	// the pools and the tracer's 256-trace retention ring, so the timed
	// region starts at steady state even under CI's short -benchtime. The
	// gate asserts the hot path, not first-touch fills.
	reqs := make([]*http.Request, len(targets))
	for i, target := range targets {
		reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
	}
	warmRR := &benchRecorder{header: make(http.Header, 4)}
	for rep := 0; rep < 300/len(reqs)+2; rep++ {
		for _, req := range reqs {
			warmRR.reset()
			h.ServeHTTP(warmRR, req)
		}
	}
	// Serial on purpose: with every buffer preallocated above, allocs/op is
	// exactly the hot path's own count — 0 — independent of -benchtime and
	// GOMAXPROCS, which is what lets CI gate it at zero.
	rr := &benchRecorder{header: make(http.Header, 4)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.reset()
		h.ServeHTTP(rr, reqs[i%len(reqs)])
		if rr.code != http.StatusOK {
			b.Fatalf("status %d", rr.code)
		}
	}
}

// BenchmarkShardFanout64 measures the consistent-hash batch fan-out: a
// 64-context POST /suggest/batch split across a 3-shard loopback ring
// (partition by ring lookup, concurrent sub-batches, in-order merge),
// ns/op is per batch. CI gates allocs/op against creep in the fan-out
// machinery (the JSON split/merge dominates; the figure is per 64 contexts).
func BenchmarkShardFanout64(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	handlers := make([]http.Handler, 3)
	for i := range handlers {
		handlers[i] = serve.NewHandler(rec, 5)
	}
	router, err := fleet.NewShardRouter(fleet.NewRing(3, 0), fleet.NewLoopbackTransport(handlers...))
	if err != nil {
		b.Fatal(err)
	}
	req := serve.BatchRequest{Requests: make([]serve.BatchItem, 64)}
	for i := range req.Requests {
		req.Requests[i] = serve.BatchItem{Context: ctxs[(i*7)%len(ctxs)], N: 5}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the shard caches so the timed region measures the fan-out
	// machinery, not 64 first-touch trie descents.
	{
		rr := &benchRecorder{header: make(http.Header, 4)}
		for rep := 0; rep < 2; rep++ {
			rr.reset()
			router.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/suggest/batch", bytes.NewReader(body)))
			if rr.code != http.StatusOK {
				b.Fatalf("warmup status %d: %s", rr.code, rr.body)
			}
		}
	}
	rr := &benchRecorder{header: make(http.Header, 4)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hr := httptest.NewRequest(http.MethodPost, "/suggest/batch", bytes.NewReader(body))
		rr.reset()
		router.ServeHTTP(rr, hr)
		if rr.code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.code, rr.body)
		}
	}
	b.ReportMetric(64, "contexts/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/context")
}

// BenchmarkShardFanout64R2 measures the replicated fan-out against the
// unreplicated one on the same ring: the preference-list planning, attempt
// masks and failover rounds must not regress the pooled fan-out's allocation
// discipline. CI gates the reported fanout-r2-over-r1 allocation ratio
// (healthy path, no failovers) at 1.5; ns/op is one R=2 batch.
func BenchmarkShardFanout64R2(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	handlers := make([]http.Handler, 3)
	for i := range handlers {
		handlers[i] = serve.NewHandler(rec, 5)
	}
	build := func(r int) *fleet.ShardRouter {
		router, err := fleet.NewShardRouterOpts(fleet.NewRing(3, 0), fleet.NewLoopbackTransport(handlers...),
			fleet.RouterOptions{Replicas: r})
		if err != nil {
			b.Fatal(err)
		}
		return router
	}
	r1, r2 := build(1), build(2)
	req := serve.BatchRequest{Requests: make([]serve.BatchItem, 64)}
	for i := range req.Requests {
		req.Requests[i] = serve.BatchItem{Context: ctxs[(i*7)%len(ctxs)], N: 5}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	run := func(router *fleet.ShardRouter, rr *benchRecorder) {
		hr := httptest.NewRequest(http.MethodPost, "/suggest/batch", bytes.NewReader(body))
		rr.reset()
		router.ServeHTTP(rr, hr)
		if rr.code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.code, rr.body)
		}
	}
	// Steady-state allocation ratio: warm both routers' pools and shard
	// caches, then compare averaged allocations per batch.
	rr := &benchRecorder{header: make(http.Header, 4)}
	for rep := 0; rep < 4; rep++ {
		run(r1, rr)
		run(r2, rr)
	}
	allocsR1 := testing.AllocsPerRun(50, func() { run(r1, rr) })
	allocsR2 := testing.AllocsPerRun(50, func() { run(r2, rr) })
	if allocsR1 < 1 {
		allocsR1 = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(r2, rr)
	}
	b.ReportMetric(64, "contexts/op")
	b.ReportMetric(allocsR2, "r2-allocs/op")
	b.ReportMetric(allocsR2/allocsR1, "fanout-r2-over-r1")
}

// BenchmarkRouterGET measures one routed GET /suggest: the router hop (hash,
// ring lookup, breaker, attempt context, spans, exchange) over three
// loopback shards at R=2 with a 2 s shard timeout and no hedge — cmd/serve's
// default router — on warm shard caches. The shard path allocates nothing,
// so allocs/op is the hop's own; CI gates it.
func BenchmarkRouterGET(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	handlers := make([]http.Handler, 3)
	for i := range handlers {
		handlers[i] = serve.NewHandler(rec, 5)
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(3, 0), fleet.NewLoopbackTransport(handlers...),
		fleet.RouterOptions{Replicas: 2, ShardTimeout: 2 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*http.Request, 0, 16)
	for i := 0; i < 16 && i < len(ctxs); i++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/suggest?q="+url.QueryEscape(ctxs[i][0]), nil))
	}
	// Warm past every trace retention ring on the path (256 traces on the
	// router and on each shard, see BenchmarkServeHTTPCached): 1024 requests
	// put at least 300 through each shard however the ring splits 16 contexts.
	rr := &benchRecorder{header: make(http.Header, 8)}
	for i := 0; i < 1024*len(reqs); i++ {
		rr.reset()
		router.ServeHTTP(rr, reqs[i%len(reqs)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.reset()
		router.ServeHTTP(rr, reqs[i%len(reqs)])
		if rr.code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.code, rr.body)
		}
	}
	if rr.Header().Get("X-Serve-Shard") == "" {
		b.Fatal("request was not routed")
	}
}

// BenchmarkServeHTTPBatch measures POST /suggest/batch end to end with
// 64-context requests: JSON decode, cache front, one batched trie descent
// for the misses, append-encoded response. ns/op is per batch.
func BenchmarkServeHTTPBatch(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	h := serve.NewHandler(rec, 5)
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

// batchBenchInputs draws a 64-context batch from the test contexts with the
// skew real batch traffic has (power-law head repetition — the same shape
// cmd/loadgen replays), so the batch contains both near-duplicate and
// distinct contexts.
func batchBenchInputs(b *testing.B) (*compiled.Model, []query.Seq, []int) {
	rec, _ := serveBenchSetup(b)
	c, _ := benchSetup(b)
	ctxs := c.TestContexts(2, 256)
	if len(ctxs) < 64 {
		b.Skip("not enough contexts")
	}
	cm := rec.CompiledModel()
	if cm == nil {
		b.Fatal("recommender did not compile")
	}
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(len(ctxs)-1))
	batch := make([]query.Seq, 64)
	ns := make([]int, 64)
	for i := range batch {
		batch[i] = ctxs[zipf.Uint64()]
		ns[i] = 5
	}
	return cm, batch, ns
}

// BenchmarkPredictBatch64 scores a 64-context batch through one shared-
// scratch batched descent; compare ns/context with
// BenchmarkPredictSequential64, the same work as 64 single calls.
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

// BenchmarkPredictSequential64 is the before side of the batched-descent
// comparison: the same 64 contexts predicted one AppendPredictions call at a
// time.
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

// BenchmarkPredictBatch64Parallel is the fanned-out side of the batched-
// descent comparison: the same 64-context batch split across GOMAXPROCS
// workers. Answers are bit-identical to BenchmarkPredictBatch64; at
// GOMAXPROCS >= 4 the ns/context must beat the sequential batch.
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

// --- future-work extension benchmarks ---------------------------------------

// BenchmarkExtensionHMM trains the hidden-intent HMM (the paper's Sec. VI
// future-work model) and reports its final training log-likelihood.
func BenchmarkExtensionHMM(b *testing.B) {
	c, _ := benchSetup(b)
	var last float64
	for i := 0; i < b.N; i++ {
		m, err := hmm.Train(c.TrainAgg, hmm.DefaultConfig(c.Vocab()))
		if err != nil {
			b.Fatal(err)
		}
		ll := m.LogLikelihoods()
		last = ll[len(ll)-1]
	}
	b.ReportMetric(last, "final-log10-likelihood")
}

// BenchmarkExtensionComparison runs the HMM/cluster-vs-MVMM comparison and
// reports the MVMM-over-cluster NDCG@5 margin (the paper's Sec. II
// replacement-vs-next-query critique).
func BenchmarkExtensionComparison(b *testing.B) {
	c, m := benchSetup(b)
	var r experiments.ExtensionResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Extensions(c, m)
		if err != nil {
			b.Fatal(err)
		}
	}
	idx := map[string]int{}
	for i, name := range r.Models {
		idx[name] = i
	}
	b.ReportMetric(r.NDCG5[idx["MVMM"]]-r.NDCG5[idx["Cluster"]], "mvmm-minus-cluster-ndcg5")
}

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

// BenchmarkIngestSegment drives one full pass of the streaming ingestion
// loop over a pre-written query log — tail read, session segmentation,
// write-ahead segment logging and incremental count updates, recompiles
// disabled — and reports sustained records/s. Each iteration starts from a
// fresh write-log, so the op is a fixed unit of work and its allocs/op gate
// in the Makefile pins the per-record allocation budget of the loop.
func BenchmarkIngestSegment(b *testing.B) {
	cfg := loggen.DefaultConfig()
	cfg.Universe = loggen.UniverseConfig{
		Topics: 16, RootsPerTopic: 4, ChainDepth: 2,
		SynonymFrac: 0.3, Universals: 6, Generics: 4, Seed: 5,
	}
	cfg.Machines = 50
	cfg.Seed = 5
	g, err := loggen.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	logPath := filepath.Join(dir, "queries.log")
	f, err := os.Create(logPath)
	if err != nil {
		b.Fatal(err)
	}
	wr := logfmt.NewWriter(f)
	records := 0
	if _, err := g.GenerateRecords(300, func(r logfmt.Record) error {
		records++
		return wr.Write(r)
	}); err != nil {
		b.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	walPath := filepath.Join(dir, "ingest.wal")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ing, err := stream.NewIngester(stream.Config{
			LogPath:           logPath,
			WALPath:           walPath,
			ModelPath:         filepath.Join(dir, "model.bin"),
			Train:             core.Config{ReductionThreshold: 0, SessionGap: 30 * time.Minute},
			SegmentRecords:    256,
			RecompileSessions: 1 << 62, // count updates only: never recompile
		})
		if err != nil {
			b.Fatal(err)
		}
		for {
			progressed, err := ing.Step()
			if err != nil {
				b.Fatal(err)
			}
			if !progressed {
				break
			}
		}
		if err := ing.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.Remove(walPath); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkServeHTTPCachedTraced measures the instrumented serving hot path:
// the full handler stack of BenchmarkServeHTTPCached with the request trace,
// per-route and per-stage histograms and the X-Trace-Id/X-Request-Id
// response headers all active. Serial with a warmed cache and a pre-filled
// trace retention ring, so CI can gate allocs/op at exactly 0 — the
// observability layer must be free on the hot path.
func BenchmarkServeHTTPCachedTraced(b *testing.B) {
	rec, ctxs := serveBenchSetup(b)
	h := serve.NewHandler(rec, 5)
	targets := make([]string, 0, 16)
	for i := 0; i < 16 && i < len(ctxs); i++ {
		targets = append(targets, "/suggest?q="+url.QueryEscape(ctxs[i][0]))
	}
	reqs := make([]*http.Request, len(targets))
	for i, target := range targets {
		reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
	}
	// Warm past the tracer's retention ring (256): while the ring is
	// filling, every finish pins its pooled trace and the pool allocates a
	// replacement. At steady state retention is a pointer swap.
	rr := &benchRecorder{header: make(http.Header, 4)}
	for rep := 0; rep < 300/len(reqs)+2; rep++ {
		for _, req := range reqs {
			rr.reset()
			h.ServeHTTP(rr, req)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.reset()
		h.ServeHTTP(rr, reqs[i%len(reqs)])
		if rr.code != http.StatusOK {
			b.Fatalf("status %d", rr.code)
		}
	}
	if rr.Header().Get("X-Trace-Id") == "" {
		b.Fatal("tracing not active on the benched path")
	}
}

// BenchmarkHistogramRecord measures one lock-free histogram record — the
// primitive every request-path instrument rides on. CI gates allocs/op at 0.
func BenchmarkHistogramRecord(b *testing.B) {
	var h obs.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 0xffff))
	}
	if h.Count() != uint64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}
