package experiments

import (
	"fmt"
	"io"
	"time"
)

// RunOptions selects what the full harness executes.
type RunOptions struct {
	Corpus      CorpusConfig
	Quick       bool // skip the Fig. 12 timing sweep, the ablations and the drift table
	StudyPerLen int  // user-study contexts per length (paper: 500)
}

// DefaultRunOptions runs everything at the default corpus scale.
func DefaultRunOptions() RunOptions {
	return RunOptions{Corpus: DefaultCorpusConfig(), StudyPerLen: 500}
}

// RunAll regenerates every table and figure of the paper's evaluation
// section, writing human-readable output to w. It returns the corpus and
// trained models so callers (the CLI) can reuse them.
func RunAll(w io.Writer, opt RunOptions) (*Corpus, *Models, error) {
	start := time.Now()
	fmt.Fprintf(w, "Building corpus: %d train / %d test sessions, reduction threshold %d\n",
		opt.Corpus.TrainSessions, opt.Corpus.TestSessions, opt.Corpus.ReductionThreshold)
	c, err := BuildCorpus(opt.Corpus)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "Corpus ready in %.1fs: vocab=%d, train agg=%d (%d reduced), test agg=%d, gt contexts=%d\n",
		time.Since(start).Seconds(), c.Vocab(), len(c.TrainAggFull), len(c.TrainAgg),
		len(c.TestAggFull), c.GroundTruth.Len())

	// Sec. V.A — data preparation figures.
	Fig1(c, 20000).Render(w)
	Fig2(c).Render(w)
	Table4(c).Render(w)
	Fig5(c).Render(w)
	Fig6(c).Render(w)
	Fig7(c).Render(w)
	Table5(c, w)

	// Train all methods once.
	tTrain := time.Now()
	m, err := TrainModels(c)
	if err != nil {
		return c, nil, err
	}
	fmt.Fprintf(w, "\nAll models trained in %.1fs\n", time.Since(tTrain).Seconds())

	// Sec. V.D — accuracy.
	for i, panel := range Fig8(c, m) {
		panel.Render(w, fmt.Sprintf("Fig. 8(%c) — pair-wise vs sequence methods", 'a'+i))
	}
	for i, panel := range Fig9(c, m) {
		panel.Render(w, fmt.Sprintf("Fig. 9(%c) — MVMM vs VMM", 'a'+i))
	}

	// Sec. V.E — coverage.
	Fig10(c, m).Render(w)
	Fig11(c, m).Render(w)
	Table6(c, m).Render(w)

	// Sec. V.F — memory.
	t7, err := Table7(m)
	if err != nil {
		return c, m, err
	}
	t7.Render(w)

	// Sec. V.G — training time.
	if !opt.Quick {
		Fig12(c).Render(w)
	}

	// Sec. V.H — user study.
	UserStudy(c, m, opt.StudyPerLen).Render(w)

	// Ablations beyond the paper (ARCHITECTURE.md §1), then Sec. VI's
	// retraining frequency.
	if !opt.Quick {
		RenderEpsilonSweep(w, AblationEpsilon(c, []float64{0.0, 0.02, 0.05, 0.1, 0.2}))
		RenderDBound(w, AblationDBound(c, []int{1, 2, 3, 4}))
		RenderReduction(w, AblationReduction(c, []uint64{0, 1, 2, 5, 10}))
		RenderSigma(w, AblationSigma(c))
		drift, err := Drift(c, 3, opt.Corpus.TestSessions/3)
		if err != nil {
			return c, m, err
		}
		drift.Render(w)
	}

	fmt.Fprintf(w, "\nTotal harness time: %.1fs\n", time.Since(start).Seconds())
	return c, m, nil
}
