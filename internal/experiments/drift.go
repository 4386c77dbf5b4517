package experiments

import (
	"fmt"
	"io"

	"repro/internal/eval"
	"repro/internal/loggen"
	"repro/internal/markov"
	"repro/internal/query"
	"repro/internal/session"
)

// DriftResult records model quality on successive post-training time slices
// with and without retraining — the paper's "frequency of retraining"
// future-work analysis (Sec. VI), which backs the ingest loop's premise that
// a model never retrained falls behind new query trends.
type DriftResult struct {
	Slices    int
	Stale     []float64 // NDCG@5 of the model trained once, per slice
	Retrained []float64 // NDCG@5 of a model retrained on all data so far
	StaleCov  []float64
	RetrCov   []float64
}

// Drift simulates deployment over time: train on the original window, then
// stream `slices` further windows (with the generator's late-onset topics
// active, i.e. trends the stale model never saw) and compare the stale model
// against one retrained cumulatively before each slice.
func Drift(c *Corpus, slices, sessionsPerSlice int) (DriftResult, error) {
	res := DriftResult{Slices: slices}
	gen, err := loggen.New(c.Cfg.Gen)
	if err != nil {
		return res, err
	}
	// Replay the training phase to position the stream, then enter the
	// drifted regime.
	for i := 0; i < c.Cfg.TrainSessions; i++ {
		gen.Session()
	}
	gen.EnterTestPhase()

	stale := markov.NewVMM(c.TrainAgg, markov.VMMConfig{Epsilon: 0.05, Vocab: c.Vocab()})
	seenSoFar := append([]query.Session(nil), c.TrainAgg...)

	// The drifted traffic's new queries are interned into a copy of the
	// corpus dictionary, with the same IDs, so the caller's corpus keeps its
	// vocabulary.
	dict := query.NewDict()
	for _, q := range c.Dict.Strings() {
		dict.Intern(q)
	}

	for s := 0; s < slices; s++ {
		// One slice of fresh traffic.
		seg := session.NewSegmenter(dict, 0)
		for i := 0; i < sessionsPerSlice; i++ {
			ls := gen.Session()
			for _, rec := range gen.Records(ls) {
				seg.Add(rec)
			}
		}
		agg := session.Aggregate(seg.Flush())
		reduced, _ := session.Reduce(agg, c.Cfg.ReductionThreshold)
		gt := eval.BuildGroundTruth(agg, 5)
		ctxs := gt.Contexts(0)
		if len(ctxs) > 2500 {
			ctxs = ctxs[:2500]
		}

		retrained := markov.NewVMM(seenSoFar, markov.VMMConfig{Epsilon: 0.05, Vocab: dict.Len()})
		res.Stale = append(res.Stale, eval.MeanNDCG(stale, gt, ctxs, 5).NDCG)
		res.Retrained = append(res.Retrained, eval.MeanNDCG(retrained, gt, ctxs, 5).NDCG)
		res.StaleCov = append(res.StaleCov, eval.Coverage(stale, ctxs))
		res.RetrCov = append(res.RetrCov, eval.Coverage(retrained, ctxs))

		// The retrained model absorbs this slice for the next round.
		seenSoFar = append(seenSoFar, reduced...)
	}
	return res, nil
}

// Render prints the drift analysis.
func (r DriftResult) Render(w io.Writer) {
	heading(w, "Extension — retraining frequency under query-trend drift (Sec. VI)")
	rows := [][]string{}
	for s := 0; s < r.Slices; s++ {
		rows = append(rows, []string{
			fmt.Sprintf("slice %d", s+1),
			f4(r.Stale[s]), f4(r.StaleCov[s]),
			f4(r.Retrained[s]), f4(r.RetrCov[s]),
		})
	}
	renderTable(w, []string{"", "stale NDCG@5", "stale cov", "retrained NDCG@5", "retrained cov"}, rows)
	fmt.Fprintln(w, "  (coverage of the stale model should trail the retrained one as new")
	fmt.Fprintln(w, "   topics emerge — the cost of not retraining)")
}
