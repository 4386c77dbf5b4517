package experiments

import (
	"fmt"
	"io"

	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/query"
)

// MaxContextLen is the longest user-context length evaluated, matching the
// paper's Figs. 8, 9 and 11 (lengths 1–4).
const MaxContextLen = 4

// contextsPerLength caps evaluation contexts per length for tractability.
const contextsPerLength = 4000

// AccuracyResult holds mean NDCG@n per (model, context length) — the data
// behind one panel of Fig. 8 or Fig. 9.
type AccuracyResult struct {
	N       int // NDCG cutoff: 1, 3 or 5
	Models  []string
	Lengths []int
	// NDCG[m][l] is model m's mean NDCG@N at context length Lengths[l].
	NDCG [][]float64
}

// Accuracy evaluates each model's NDCG@n across context lengths 1..MaxContextLen.
func Accuracy(c *Corpus, models []model.Predictor, n int) AccuracyResult {
	res := AccuracyResult{N: n}
	for l := 1; l <= MaxContextLen; l++ {
		res.Lengths = append(res.Lengths, l)
	}
	for _, m := range models {
		res.Models = append(res.Models, m.Name())
		row := make([]float64, 0, len(res.Lengths))
		for _, l := range res.Lengths {
			ctxs := c.TestContexts(l, contextsPerLength)
			row = append(row, eval.MeanNDCG(m, c.GroundTruth, ctxs, n).NDCG)
		}
		res.NDCG = append(res.NDCG, row)
	}
	return res
}

// Render prints one NDCG panel.
func (r AccuracyResult) Render(w io.Writer, title string) {
	heading(w, title)
	headers := []string{fmt.Sprintf("NDCG@%d", r.N)}
	for _, l := range r.Lengths {
		headers = append(headers, fmt.Sprintf("len=%d", l))
	}
	rows := [][]string{}
	for i, name := range r.Models {
		row := []string{name}
		for _, v := range r.NDCG[i] {
			row = append(row, f4(v))
		}
		rows = append(rows, row)
	}
	renderTable(w, headers, rows)
}

// Fig8 computes the three panels of Fig. 8 (NDCG@1/3/5, pair-wise vs
// sequence methods).
func Fig8(c *Corpus, m *Models) []AccuracyResult {
	set := m.Fig8Set()
	return []AccuracyResult{
		Accuracy(c, set, 1),
		Accuracy(c, set, 3),
		Accuracy(c, set, 5),
	}
}

// Fig9 computes the three panels of Fig. 9 (MVMM vs single VMMs).
func Fig9(c *Corpus, m *Models) []AccuracyResult {
	set := m.Fig9Set()
	return []AccuracyResult{
		Accuracy(c, set, 1),
		Accuracy(c, set, 3),
		Accuracy(c, set, 5),
	}
}

// CoverageResult holds overall coverage per model (Fig. 10).
type CoverageResult struct {
	Models   []string
	Coverage []float64
}

// Fig10 measures overall coverage of every method on all unreduced test
// contexts.
func Fig10(c *Corpus, m *Models) CoverageResult {
	ctxs := c.CoverageContexts(0, 0)
	var res CoverageResult
	for _, p := range m.AllSet() {
		res.Models = append(res.Models, p.Name())
		res.Coverage = append(res.Coverage, eval.Coverage(p, ctxs))
	}
	return res
}

// Render prints Fig. 10.
func (r CoverageResult) Render(w io.Writer) {
	heading(w, "Fig. 10 — Coverage of various methods on test data")
	for i, name := range r.Models {
		renderBar(w, name, r.Coverage[i], 1, 18)
	}
}

// CoverageByLenResult holds coverage per (model, context length) — Fig. 11.
type CoverageByLenResult struct {
	Models   []string
	Lengths  []int
	Coverage [][]float64
}

// Fig11 measures coverage across context lengths for the sequence models.
func Fig11(c *Corpus, m *Models) CoverageByLenResult {
	set := []model.Predictor{m.NGram, m.VMM05, m.MVMM, m.Served}
	var res CoverageByLenResult
	for l := 1; l <= MaxContextLen; l++ {
		res.Lengths = append(res.Lengths, l)
	}
	for _, p := range set {
		res.Models = append(res.Models, p.Name())
		row := make([]float64, 0, len(res.Lengths))
		for _, l := range res.Lengths {
			row = append(row, eval.Coverage(p, c.CoverageContexts(l, 0)))
		}
		res.Coverage = append(res.Coverage, row)
	}
	return res
}

// Render prints Fig. 11.
func (r CoverageByLenResult) Render(w io.Writer) {
	heading(w, "Fig. 11 — Coverage versus context length for sequence-wise models")
	for i, name := range r.Models {
		renderSeries(w, name, r.Lengths, r.Coverage[i])
	}
}

// Table6Result tallies unpredictability reasons per model.
type Table6Result struct {
	Models  []string
	Reasons [][eval.NumReasons]int
}

// Table6 classifies every uncovered test context by the Table VI taxonomy.
func Table6(c *Corpus, m *Models) Table6Result {
	ts := eval.NewTrainStats(c.TrainAgg)
	ctxs := c.CoverageContexts(0, 0)
	var res Table6Result
	type entry struct {
		p       model.Predictor
		isNGram bool
	}
	for _, e := range []entry{
		{m.Cooc, false}, {m.Adj, false}, {m.VMM05, false}, {m.MVMM, false}, {m.Served, false}, {m.NGram, true},
	} {
		res.Models = append(res.Models, e.p.Name())
		res.Reasons = append(res.Reasons, eval.ReasonCounts(e.p, ts, ctxs, e.isNGram))
	}
	return res
}

// Render prints Table VI.
func (r Table6Result) Render(w io.Writer) {
	heading(w, "Table VI — Reasons for unpredictable queries (counts)")
	headers := []string{"Model"}
	for i := 1; i < eval.NumReasons; i++ {
		headers = append(headers, fmt.Sprintf("(%d)", i))
	}
	headers = append(headers, "covered")
	rows := [][]string{}
	for i, name := range r.Models {
		row := []string{name}
		for j := 1; j < eval.NumReasons; j++ {
			row = append(row, fmt.Sprint(r.Reasons[i][j]))
		}
		row = append(row, fmt.Sprint(r.Reasons[i][0]))
		rows = append(rows, row)
	}
	renderTable(w, headers, rows)
}

// evalContexts is a convenience for tests: the contexts Table VI tallies.
func evalContexts(c *Corpus) []query.Seq { return c.CoverageContexts(0, 0) }
