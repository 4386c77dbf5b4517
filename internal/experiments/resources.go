package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/compiled"
	"repro/internal/markov"
	"repro/internal/pairwise"
	"repro/internal/query"
	"repro/internal/store"
)

// Table7Result reports each model's memory footprint in bytes — the paper's
// Table VII comparison — plus the PST node counts the paper quotes in
// Sec. V.F.2. Interpreted models are measured as their serialized (CPS-free
// varint) footprint; the MVMM is additionally measured in the two compiled
// single-PST serving forms production actually maps: the exact CPS3 flat
// blob and the compact quantised CPS5 blob, both byte-exact encoder outputs.
type Table7Result struct {
	Models    []string
	Bytes     []int64
	MVMMUnion int   // distinct nodes across all MVMM components
	VMM00Size int   // the full tree's node count (paper: union == VMM(0.0))
	CPS3Bytes int64 // exact compiled (CPS3) blob size — what a model file holds when the model does not fit CPS5
	CPS5Bytes int64 // compact quantised compiled (CPS5) blob size — what a model file normally holds and a server maps; 0 when the model does not fit it
}

// Table7 measures footprints of every trained model, including the compiled
// serving forms of the MVMM.
func Table7(m *Models) (Table7Result, error) {
	var res Table7Result
	add := func(name string, wt interface {
		WriteTo(io.Writer) (int64, error)
	}) error {
		n, err := store.Footprint(wt)
		if err != nil {
			return fmt.Errorf("experiments: footprint of %s: %w", name, err)
		}
		res.Models = append(res.Models, name)
		res.Bytes = append(res.Bytes, n)
		return nil
	}
	for _, step := range []struct {
		name string
		wt   io.WriterTo
	}{
		{m.MVMM.Name(), m.MVMM},
		{m.VMM00.Name(), m.VMM00},
		{m.VMM05.Name(), m.VMM05},
		{m.VMM10.Name(), m.VMM10},
		{m.Adj.Name(), m.Adj},
		{m.Cooc.Name(), m.Cooc},
		{m.NGram.Name(), m.NGram},
	} {
		if err := add(step.name, step.wt); err != nil {
			return res, err
		}
	}
	comp, err := compiled.Compile(m.MVMM)
	if err != nil {
		return res, fmt.Errorf("experiments: compiling MVMM for Table VII: %w", err)
	}
	res.CPS3Bytes = int64(len(comp.AppendFlat(nil)))
	res.Models = append(res.Models, "MVMM (compiled CPS3)")
	res.Bytes = append(res.Bytes, res.CPS3Bytes)
	switch blob5, err := comp.AppendFlat5(nil); {
	case err == nil:
		res.CPS5Bytes = int64(len(blob5))
		res.Models = append(res.Models, "MVMM (compiled CPS5, quantised)")
		res.Bytes = append(res.Bytes, res.CPS5Bytes)
	case errors.Is(err, compiled.ErrUnquantisable):
		// The model does not fit the quantised layout (matching the save
		// path, which falls back to CPS3); render the table without the row.
	default:
		return res, fmt.Errorf("experiments: quantising MVMM for Table VII: %w", err)
	}
	res.MVMMUnion = m.MVMM.UnionNodes()
	res.VMM00Size = m.VMM00.NumNodes()
	return res, nil
}

// Render prints Table VII.
func (r Table7Result) Render(w io.Writer) {
	heading(w, "Table VII — Memory footprint for all methods (bytes; interpreted models serialized, compiled MVMM as the mmapped serving blob)")
	rows := [][]string{}
	for i, name := range r.Models {
		rows = append(rows, []string{name, fmt.Sprint(r.Bytes[i]), fmt.Sprintf("%.2f MB", float64(r.Bytes[i])/1e6)})
	}
	renderTable(w, []string{"Model", "Bytes", "MB"}, rows)
	fmt.Fprintf(w, "  MVMM union-PST nodes: %d; VMM(0.0) nodes: %d (paper: union == full tree)\n",
		r.MVMMUnion, r.VMM00Size)
	if r.CPS3Bytes > 0 && r.CPS5Bytes > 0 {
		fmt.Fprintf(w, "  compiled serving blob: CPS3 %d B -> quantised CPS5 %d B (%.1f%% smaller)\n",
			r.CPS3Bytes, r.CPS5Bytes, 100*(1-float64(r.CPS5Bytes)/float64(r.CPS3Bytes)))
	}
}

// Fig12Result holds training time versus data size for every method.
type Fig12Result struct {
	Sizes  []int // number of aggregated training sessions used
	Models []string
	// Seconds[m][s] is model m's training time on Sizes[s] sessions.
	Seconds [][]float64
}

// Fig12 trains each method on growing prefixes of the training data
// (25/50/75/100%) and times it. The sweep uses the full (unreduced)
// aggregated sessions so the timings are dominated by real work rather than
// noise, and the MVMM components are trained serially so the reported time
// reflects the paper's K-fold training cost.
func Fig12(c *Corpus) Fig12Result {
	full := c.TrainAggFull
	var res Fig12Result
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	for _, f := range fractions {
		res.Sizes = append(res.Sizes, int(f*float64(len(full))))
	}
	vocab := c.Vocab()
	type trainer struct {
		name string
		fn   func(train []query.Session)
	}
	trainers := []trainer{
		{"Adjacency", func(t []query.Session) { pairwise.NewAdjacency(t, vocab) }},
		{"Co-occurrence", func(t []query.Session) { pairwise.NewCooccurrence(t, vocab) }},
		{"N-gram", func(t []query.Session) { markov.NewNGram(t, vocab) }},
		{"VMM (0.05)", func(t []query.Session) {
			markov.NewVMM(t, markov.VMMConfig{Epsilon: 0.05, Vocab: vocab})
		}},
		{"MVMM", func(t []query.Session) {
			markov.NewMVMMFromEpsilons(t, markov.DefaultEpsilons(), vocab,
				markov.MVMMOptions{TrainSample: 500, NewtonIters: 10})
		}},
	}
	for _, tr := range trainers {
		res.Models = append(res.Models, tr.name)
		row := make([]float64, 0, len(res.Sizes))
		for _, n := range res.Sizes {
			start := time.Now()
			tr.fn(full[:n])
			row = append(row, time.Since(start).Seconds())
		}
		res.Seconds = append(res.Seconds, row)
	}
	return res
}

// Render prints Fig. 12.
func (r Fig12Result) Render(w io.Writer) {
	heading(w, "Fig. 12 — Training time versus amount of training data (seconds)")
	headers := []string{"Model"}
	for _, s := range r.Sizes {
		headers = append(headers, fmt.Sprintf("%d", s))
	}
	rows := [][]string{}
	for i, name := range r.Models {
		row := []string{name}
		for _, v := range r.Seconds[i] {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}
	renderTable(w, headers, rows)
}

// LinearityRatio reports max/min of time-per-session across sizes for model
// i — near 1 means linear scaling (the paper's headline claim for Fig. 12).
func (r Fig12Result) LinearityRatio(i int) float64 {
	lo, hi := 0.0, 0.0
	for j, n := range r.Sizes {
		if n == 0 || r.Seconds[i][j] <= 0 {
			continue
		}
		per := r.Seconds[i][j] / float64(n)
		if lo == 0 || per < lo {
			lo = per
		}
		if per > hi {
			hi = per
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}
