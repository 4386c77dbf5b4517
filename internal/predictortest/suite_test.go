package predictortest_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/logfmt"
	"repro/internal/markov"
	"repro/internal/pairwise"
	"repro/internal/predictortest"
	"repro/internal/query"
)

// trainingData builds a small shared corpus: two refinement chains with
// enough repetition that every model produces confident answers.
func trainingData() (*query.Dict, []query.Session, []query.Seq) {
	d := query.NewDict()
	seq := func(queries ...string) query.Seq {
		s := make(query.Seq, len(queries))
		for i, q := range queries {
			s[i] = d.Intern(q)
		}
		return s
	}
	sessions := []query.Session{
		{Queries: seq("nokia n73", "nokia n73 themes"), Count: 30},
		{Queries: seq("nokia n73", "nokia n73 review"), Count: 10},
		{Queries: seq("kidney stones", "kidney stone symptoms"), Count: 20},
		{Queries: seq("kidney stones", "kidney stone symptoms", "kidney stone treatment"), Count: 5},
	}
	ctxs := []query.Seq{
		seq("nokia n73"),
		seq("kidney stones"),
		seq("kidney stones", "kidney stone symptoms"),
		seq("query never trained"), // uncovered: must answer empty, not panic
	}
	// A context longer than the compiled trie's Eq. (4) weight table (32):
	// the match is its last query, 39 queries short of the context.
	long := make(query.Seq, 40)
	for i := range long {
		long[i] = ctxs[0][0]
	}
	long[len(long)-1] = ctxs[1][0]
	ctxs = append(ctxs, long)
	return d, sessions, ctxs
}

// compiledModel compiles the MVMM core trains on the shared corpus.
func compiledModel(t *testing.T) (*compiled.Model, []query.Seq) {
	t.Helper()
	d, sessions, ctxs := trainingData()
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	cm := core.TrainFromAggregated(d, sessions, cfg).CompiledModel()
	if cm == nil {
		t.Fatal("training produced no compiled model")
	}
	return cm, ctxs
}

func TestCompiledModelConformance(t *testing.T) {
	cm, ctxs := compiledModel(t)
	if long := ctxs[len(ctxs)-1]; len(long) <= 32 || len(cm.Predict(long, 5)) == 0 {
		t.Fatalf("the %d-query context is not answered: no stage runs past the weight table", len(long))
	}
	predictortest.Run(t, cm, ctxs)
}

// TestCompiledCPS5Conformance holds the trie a server maps — the CPS5 blob a
// model file carries, loaded back zero-copy — to the same contract.
func TestCompiledCPS5Conformance(t *testing.T) {
	cm, ctxs := compiledModel(t)
	blob, err := cm.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	served, err := compiled.FromBytes(blob, compiled.ViewAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !served.Quantised() {
		t.Fatal("the CPS5 load is not quantised")
	}
	predictortest.Run(t, served, ctxs)
}

func TestNGramConformance(t *testing.T) {
	d, sessions, ctxs := trainingData()
	predictortest.Run(t, markov.NewNGram(sessions, d.Len()), ctxs)
}

// TestVMMConformance runs the three single VMMs of the paper's Fig. 9.
func TestVMMConformance(t *testing.T) {
	d, sessions, ctxs := trainingData()
	for _, eps := range []float64{0, 0.05, 0.1} {
		m := markov.NewVMM(sessions, markov.VMMConfig{Epsilon: eps, Vocab: d.Len()})
		t.Run(m.Name(), func(t *testing.T) { predictortest.Run(t, m, ctxs) })
	}
}

func TestMVMMConformance(t *testing.T) {
	d, sessions, ctxs := trainingData()
	m := markov.NewMVMMFromEpsilons(sessions, markov.DefaultEpsilons(), d.Len(),
		markov.MVMMOptions{TrainSample: 50, NewtonIters: 3})
	predictortest.Run(t, m, ctxs)
}

func TestHMMConformance(t *testing.T) {
	d, sessions, ctxs := trainingData()
	cfg := hmm.DefaultConfig(d.Len())
	cfg.States = 4
	cfg.Iterations = 8
	m, err := hmm.Train(sessions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	predictortest.Run(t, m, ctxs)
}

func TestClusterConformance(t *testing.T) {
	d, _, ctxs := trainingData()
	g := cluster.NewClickGraph(d)
	// Queries about the same phone share clicked URLs; so do the medical
	// queries. Click counts exceed DefaultConfig's MinClicks.
	add := func(q, url string, times int) {
		for i := 0; i < times; i++ {
			g.Add(logfmt.Record{Query: q, Clicks: []logfmt.Click{{URL: url}}})
		}
	}
	add("nokia n73", "phones.example/n73", 8)
	add("nokia n73 themes", "phones.example/n73", 6)
	add("nokia n73 review", "phones.example/n73", 4)
	add("kidney stones", "health.example/stones", 8)
	add("kidney stone symptoms", "health.example/stones", 6)
	add("kidney stone treatment", "health.example/stones", 4)
	predictortest.Run(t, cluster.Build(g, cluster.DefaultConfig()), ctxs)
}

func TestAdjacencyConformance(t *testing.T) {
	d, sessions, ctxs := trainingData()
	predictortest.Run(t, pairwise.NewAdjacency(sessions, d.Len()), ctxs)
}

func TestCooccurrenceConformance(t *testing.T) {
	d, sessions, ctxs := trainingData()
	predictortest.Run(t, pairwise.NewCooccurrence(sessions, d.Len()), ctxs)
}
