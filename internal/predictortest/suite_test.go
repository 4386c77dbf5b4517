package predictortest_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/logfmt"
	"repro/internal/pairwise"
	"repro/internal/predictortest"
	"repro/internal/query"
)

// trainingData builds a small shared corpus: two refinement chains with
// enough repetition that every family produces confident answers.
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

func TestCompiledModelConformance(t *testing.T) {
	d, sessions, ctxs := trainingData()
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	rec := core.TrainFromAggregated(d, sessions, cfg)
	cm := rec.CompiledModel()
	if cm == nil {
		t.Fatal("training produced no compiled model")
	}
	if long := ctxs[len(ctxs)-1]; len(long) <= 32 || len(cm.PredictInto(nil, long, 5)) == 0 {
		t.Fatalf("the %d-query context is not answered: no stage runs past the weight table", len(long))
	}
	predictortest.Run(t, cm, ctxs)
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
