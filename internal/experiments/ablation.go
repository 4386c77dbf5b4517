package experiments

import (
	"fmt"
	"io"

	"repro/internal/eval"
	"repro/internal/markov"
	"repro/internal/session"
)

// Ablations exercise the design choices ARCHITECTURE.md §1 lists beside the
// paper's figures. Each returns a small table of metric-vs-setting rows.

// EpsilonSweepRow is one setting of the PST growth threshold.
type EpsilonSweepRow struct {
	Epsilon float64
	Nodes   int
	NDCG5   float64
	LogLoss float64
}

// AblationEpsilon sweeps ε for a single unbounded VMM, reproducing the
// Sec. IV.C.1(a) sensitivity claim: accuracy peaks at a moderate ε while the
// tree size shrinks monotonically.
func AblationEpsilon(c *Corpus, epsilons []float64) []EpsilonSweepRow {
	ctxs := c.TestContexts(0, 2500)
	testSample := c.TestAgg
	if len(testSample) > 2500 {
		testSample = testSample[:2500]
	}
	rows := make([]EpsilonSweepRow, 0, len(epsilons))
	for _, e := range epsilons {
		m := markov.NewVMM(c.TrainAgg, markov.VMMConfig{Epsilon: e, Vocab: c.Vocab()})
		rows = append(rows, EpsilonSweepRow{
			Epsilon: e,
			Nodes:   m.NumNodes(),
			NDCG5:   eval.MeanNDCG(m, c.GroundTruth, ctxs, 5).NDCG,
			LogLoss: eval.LogLoss(m, testSample, c.Vocab()),
		})
	}
	return rows
}

// RenderEpsilonSweep prints the ε ablation.
func RenderEpsilonSweep(w io.Writer, rows []EpsilonSweepRow) {
	heading(w, "Ablation — PST growth threshold ε (single VMM)")
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{fmt.Sprintf("%.2f", r.Epsilon), fmt.Sprint(r.Nodes), f4(r.NDCG5), f4(r.LogLoss)})
	}
	renderTable(w, []string{"epsilon", "PST nodes", "NDCG@5", "log-loss"}, out)
}

// DBoundRow is one setting of the VMM depth bound.
type DBoundRow struct {
	D     int
	Nodes int
	NDCG5 float64
}

// AblationDBound sweeps the depth bound D for VMM(0.05).
func AblationDBound(c *Corpus, bounds []int) []DBoundRow {
	ctxs := c.TestContexts(0, 2500)
	rows := make([]DBoundRow, 0, len(bounds))
	for _, d := range bounds {
		m := markov.NewVMM(c.TrainAgg, markov.VMMConfig{Epsilon: 0.05, D: d, Vocab: c.Vocab()})
		rows = append(rows, DBoundRow{
			D:     d,
			Nodes: m.NumNodes(),
			NDCG5: eval.MeanNDCG(m, c.GroundTruth, ctxs, 5).NDCG,
		})
	}
	return rows
}

// RenderDBound prints the D-bound ablation.
func RenderDBound(w io.Writer, rows []DBoundRow) {
	heading(w, "Ablation — VMM depth bound D (ε = 0.05)")
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{fmt.Sprint(r.D), fmt.Sprint(r.Nodes), f4(r.NDCG5)})
	}
	renderTable(w, []string{"D", "PST nodes", "NDCG@5"}, out)
}

// ReductionRow is one setting of the data-reduction threshold.
type ReductionRow struct {
	Threshold uint64
	Kept      int
	Mass      float64
	Coverage  float64
	NDCG5     float64
}

// AblationReduction sweeps the Sec. V.A.4 frequency threshold, trading
// coverage against noise in the training set.
func AblationReduction(c *Corpus, thresholds []uint64) []ReductionRow {
	rows := make([]ReductionRow, 0, len(thresholds))
	for _, th := range thresholds {
		train, mass := session.Reduce(c.TrainAggFull, th)
		m := markov.NewVMM(train, markov.VMMConfig{Epsilon: 0.05, Vocab: c.Vocab()})
		ctxs := c.TestContexts(0, 2500)
		rows = append(rows, ReductionRow{
			Threshold: th,
			Kept:      len(train),
			Mass:      mass,
			Coverage:  eval.Coverage(m, ctxs),
			NDCG5:     eval.MeanNDCG(m, c.GroundTruth, ctxs, 5).NDCG,
		})
	}
	return rows
}

// RenderReduction prints the reduction-threshold ablation.
func RenderReduction(w io.Writer, rows []ReductionRow) {
	heading(w, "Ablation — data reduction threshold (VMM 0.05)")
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.Threshold), fmt.Sprint(r.Kept),
			fmt.Sprintf("%.2f%%", 100*r.Mass), f4(r.Coverage), f4(r.NDCG5),
		})
	}
	renderTable(w, []string{"threshold", "kept sessions", "mass", "coverage", "NDCG@5"}, out)
}

// SigmaRow compares learned vs fixed mixture widths.
type SigmaRow struct {
	Setting string
	NDCG5   float64
	LogLoss float64
}

// AblationSigma compares the Newton-learned σ against fixed-width mixtures,
// isolating the contribution of Eq. (9) weight learning.
func AblationSigma(c *Corpus) []SigmaRow {
	ctxs := c.TestContexts(0, 2000)
	testSample := c.TestAgg
	if len(testSample) > 2000 {
		testSample = testSample[:2000]
	}
	eps := []float64{0.0, 0.02, 0.05, 0.1}
	configs := []struct {
		name string
		opt  markov.MVMMOptions
	}{
		{"learned sigma (Newton)", markov.MVMMOptions{TrainSample: 1000, NewtonIters: 20}},
		{"fixed sigma = 1", markov.MVMMOptions{FixedSigma: 1}},
		{"fixed sigma = 10 (near-uniform)", markov.MVMMOptions{FixedSigma: 10}},
	}
	rows := make([]SigmaRow, 0, len(configs))
	for _, cf := range configs {
		m := markov.NewMVMM(c.TrainAgg, eps, c.Vocab(), cf.opt)
		rows = append(rows, SigmaRow{
			Setting: cf.name,
			NDCG5:   eval.MeanNDCG(m, c.GroundTruth, ctxs, 5).NDCG,
			LogLoss: eval.LogLoss(m, testSample, c.Vocab()),
		})
	}
	return rows
}

// RenderSigma prints the σ ablation.
func RenderSigma(w io.Writer, rows []SigmaRow) {
	heading(w, "Ablation — MVMM mixture weights: learned vs fixed σ")
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{r.Setting, f4(r.NDCG5), f4(r.LogLoss)})
	}
	renderTable(w, []string{"setting", "NDCG@5", "log-loss"}, out)
}
