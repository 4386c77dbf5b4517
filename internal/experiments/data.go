// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec. V) on the synthetic log substrate, printing the
// same rows and series the paper reports. Each experiment has a compute
// function returning a typed result (used by the benchmark harness) and a
// renderer writing a human-readable table/chart.
package experiments

import (
	"fmt"

	"repro/internal/compiled"
	"repro/internal/eval"
	"repro/internal/loggen"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/pairwise"
	"repro/internal/query"
	"repro/internal/session"
)

// CorpusConfig sizes the synthetic corpus. The train:test ratio defaults to
// 4:1, mirroring the paper's 120-day train / 30-day test split.
type CorpusConfig struct {
	TrainSessions      int
	TestSessions       int
	ReductionThreshold uint64
	Gen                loggen.Config
}

// DefaultCorpusConfig is the scale used by the experiment CLI: large enough
// for stable shapes, small enough for a laptop.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		TrainSessions:      120000,
		TestSessions:       30000,
		ReductionThreshold: 2,
		Gen:                loggen.DefaultConfig(),
	}
}

// SmallCorpusConfig is the scale used by tests and benchmarks.
func SmallCorpusConfig() CorpusConfig {
	cfg := DefaultCorpusConfig()
	cfg.TrainSessions = 24000
	cfg.TestSessions = 6000
	cfg.ReductionThreshold = 1
	cfg.Gen.Machines = 1500
	cfg.Gen.Universe.Topics = 80
	return cfg
}

// Corpus is a fully prepared train/test split: raw segmented sessions,
// aggregated sessions before and after reduction, ground truth, and the
// generator's universe (needed by the user-study oracle).
type Corpus struct {
	Cfg         CorpusConfig
	Dict        *query.Dict
	Universe    *loggen.Universe
	TrainLabels []loggen.LabeledSession

	TrainAggFull []query.Session // aggregated, before reduction
	TrainAgg     []query.Session // after reduction
	TestAggFull  []query.Session
	TestAgg      []query.Session
	RetainedMass float64 // training mass surviving reduction (Fig. 7)

	// GroundTruth ranks followers over the reduced test window and is used
	// for accuracy (NDCG needs stable follower rankings, which one-off
	// sessions cannot provide at laptop scale).
	GroundTruth *eval.GroundTruth
	// GroundTruthFull spans the unreduced test window and is used for
	// coverage: at the paper's scale even rare sessions repeat past the
	// reduction threshold, so their test set retains the long, never-seen
	// contexts that expose the N-gram coverage collapse; at our scale the
	// unreduced window is the faithful equivalent.
	GroundTruthFull *eval.GroundTruth
}

// BuildCorpus generates the synthetic log, segments it with the 30-minute
// rule, aggregates and reduces both windows, and derives test ground truth.
// The train and test windows come from one continuous generator stream, so
// they share the universe but diverge in their Zipf tails — reproducing the
// paper's partial train/test vocabulary overlap.
func BuildCorpus(cfg CorpusConfig) (*Corpus, error) {
	gen, err := loggen.New(cfg.Gen)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	dict := query.NewDict()

	segment := func(n int) ([]query.Seq, []loggen.LabeledSession) {
		seg := session.NewSegmenter(dict, 0)
		labels := make([]loggen.LabeledSession, 0, n)
		for i := 0; i < n; i++ {
			ls := gen.Session()
			labels = append(labels, ls)
			for _, rec := range gen.Records(ls) {
				seg.Add(rec)
			}
		}
		return seg.Flush(), labels
	}

	trainRaw, trainLabels := segment(cfg.TrainSessions)
	gen.EnterTestPhase() // unlock late-onset topics: train/test drift
	testRaw, _ := segment(cfg.TestSessions)

	c := &Corpus{Cfg: cfg, Dict: dict, Universe: gen.Universe(), TrainLabels: trainLabels}
	c.TrainAggFull = session.Aggregate(trainRaw)
	c.TrainAgg, c.RetainedMass = session.Reduce(c.TrainAggFull, cfg.ReductionThreshold)
	c.TestAggFull = session.Aggregate(testRaw)
	c.TestAgg, _ = session.Reduce(c.TestAggFull, cfg.ReductionThreshold)
	c.GroundTruth = eval.BuildGroundTruth(c.TestAgg, 5)
	c.GroundTruthFull = eval.BuildGroundTruth(c.TestAggFull, 5)
	return c, nil
}

// Vocab returns |Q| over the training dictionary.
func (c *Corpus) Vocab() int { return c.Dict.Len() }

// TestContexts returns up to limit reduced-window ground-truth contexts of
// the given length (0 = all lengths), deterministically.
func (c *Corpus) TestContexts(length, limit int) []query.Seq {
	ctxs := c.GroundTruth.Contexts(length)
	if limit > 0 && len(ctxs) > limit {
		ctxs = ctxs[:limit]
	}
	return ctxs
}

// CoverageContexts returns contexts from the unreduced test window, used by
// the coverage experiments (Figs. 10–11, Table VI).
func (c *Corpus) CoverageContexts(length, limit int) []query.Seq {
	ctxs := c.GroundTruthFull.Contexts(length)
	if limit > 0 && len(ctxs) > limit {
		ctxs = ctxs[:limit]
	}
	return ctxs
}

// Models bundles every trained method under comparison, plus the MVMM in the
// form a server answers from.
type Models struct {
	Adj   *pairwise.Adjacency
	Cooc  *pairwise.Cooccurrence
	NGram *markov.NGram
	VMM00 *markov.VMM
	VMM05 *markov.VMM
	VMM10 *markov.VMM
	MVMM  *markov.MVMM
	// Served is MVMM compiled, encoded as the CPS5 blob a QRECV006 model
	// file holds and loaded back from those bytes the way cmd/serve maps
	// them — "MVMM (compiled, quantised)" in the figures.
	Served *compiled.Model
}

// TrainModels trains all seven methods on the corpus's reduced training
// sessions, matching the paper's Sec. V setup (MVMM = eleven ε values), and
// derives the served MVMM from the trained one.
func TrainModels(c *Corpus) (*Models, error) {
	vocab := c.Vocab()
	train := c.TrainAgg
	m := &Models{
		Adj:   pairwise.NewAdjacency(train, vocab),
		Cooc:  pairwise.NewCooccurrence(train, vocab),
		NGram: markov.NewNGram(train, vocab),
		VMM00: markov.NewVMM(train, markov.VMMConfig{Epsilon: 0.0, Vocab: vocab}),
		VMM05: markov.NewVMM(train, markov.VMMConfig{Epsilon: 0.05, Vocab: vocab}),
		VMM10: markov.NewVMM(train, markov.VMMConfig{Epsilon: 0.1, Vocab: vocab}),
		MVMM:  markov.NewMVMM(train, markov.DefaultEpsilons(), vocab, markov.MVMMOptions{}),
	}
	comp, err := compiled.Compile(m.MVMM)
	if err != nil {
		return nil, fmt.Errorf("experiments: compiling the served MVMM: %w", err)
	}
	blob, err := comp.AppendFlat5(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding the served MVMM as CPS5: %w", err)
	}
	if m.Served, err = compiled.FromBytes(blob, compiled.ViewAuto); err != nil {
		return nil, fmt.Errorf("experiments: loading the served MVMM: %w", err)
	}
	return m, nil
}

// Fig8Set returns the models compared in Fig. 8 (pair-wise vs sequence).
func (m *Models) Fig8Set() []model.Predictor {
	return []model.Predictor{m.Adj, m.Cooc, m.NGram, m.MVMM, m.Served}
}

// Fig9Set returns the models compared in Fig. 9 (MVMM vs single VMMs).
func (m *Models) Fig9Set() []model.Predictor {
	return []model.Predictor{m.MVMM, m.Served, m.VMM00, m.VMM05, m.VMM10}
}

// AllSet returns every method, in the paper's usual presentation order.
func (m *Models) AllSet() []model.Predictor {
	return []model.Predictor{m.Cooc, m.Adj, m.NGram, m.VMM00, m.VMM05, m.VMM10, m.MVMM, m.Served}
}

// StudySet returns the four methods of the Sec. V.H user study.
func (m *Models) StudySet() []model.Predictor {
	return []model.Predictor{m.Cooc, m.Adj, m.NGram, m.MVMM}
}
