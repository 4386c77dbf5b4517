// Modelcompare: train all five approaches of the paper on one corpus and
// print a side-by-side accuracy/coverage comparison — a compact version of
// the paper's Figs. 8-11 for your own data scale — with the MVMM scored a
// second time as a server answers from it: the CPS5 bytes of a model file.
package main

import (
	"fmt"
	"log"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/model"
)

func main() {
	log.SetFlags(0)

	cfg := experiments.SmallCorpusConfig()
	cfg.TrainSessions = 30000
	cfg.TestSessions = 8000
	fmt.Printf("building corpus (%d train / %d test sessions)...\n", cfg.TrainSessions, cfg.TestSessions)
	corpus, err := experiments.BuildCorpus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	models, err := experiments.TrainModels(corpus)
	if err != nil {
		log.Fatal(err)
	}

	methods := []model.Predictor{
		models.Cooc, models.Adj, models.NGram, models.VMM05, models.MVMM, models.Served,
	}
	fmt.Printf("\n%-26s %10s %10s %10s %10s\n", "model", "NDCG@1", "NDCG@5", "coverage", "log-loss")
	ctxs := corpus.TestContexts(0, 3000)
	covCtxs := corpus.CoverageContexts(0, 0)
	testSample := corpus.TestAgg
	if len(testSample) > 2000 {
		testSample = testSample[:2000]
	}
	for _, m := range methods {
		n1 := eval.MeanNDCG(m, corpus.GroundTruth, ctxs, 1)
		n5 := eval.MeanNDCG(m, corpus.GroundTruth, ctxs, 5)
		cov := eval.Coverage(m, covCtxs)
		ll := eval.LogLoss(m, testSample, corpus.Vocab())
		fmt.Printf("%-26s %10.4f %10.4f %10.4f %10.4f\n", m.Name(), n1.NDCG, n5.NDCG, cov, ll)
	}
	fmt.Println("\nExpected shape (paper): sequence models beat pair-wise on NDCG;")
	fmt.Println("Co-occurrence leads coverage; N-gram coverage is worst; MVMM balances both.")
}
