package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
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
// varint) footprint; the MVMM is additionally measured in its two compiled
// single-PST forms: the exact arrays Compile builds in process, and the
// compact quantised CPS5 blob a model file holds and a server maps, as the
// encoder's byte-exact output.
type Table7Result struct {
	Models     []string
	Bytes      []int64
	MVMMUnion  int   // distinct nodes across all MVMM components
	VMM00Size  int   // the full tree's node count (paper: union == VMM(0.0))
	ExactBytes int64 // the exact compiled model's in-process arrays (compiled.Model.ExactBytes)
	CPS5Bytes  int64 // compact quantised compiled (CPS5) blob size — what a model file holds and a server maps
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
	res.ExactBytes = comp.ExactBytes()
	blob5, err := comp.AppendFlat5(nil)
	if err != nil {
		return res, fmt.Errorf("experiments: quantising MVMM for Table VII: %w", err)
	}
	res.CPS5Bytes = int64(len(blob5))
	res.Models = append(res.Models, "MVMM (compiled, exact arrays)", "MVMM (compiled CPS5, quantised)")
	res.Bytes = append(res.Bytes, res.ExactBytes, res.CPS5Bytes)
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
	fmt.Fprintf(w, "  compiled serving blob: exact arrays %d B -> quantised CPS5 %d B (%.1f%% smaller)\n",
		r.ExactBytes, r.CPS5Bytes, 100*(1-float64(r.CPS5Bytes)/float64(r.ExactBytes)))
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
// noise, in a seeded shuffle: the aggregated sessions are sorted by count,
// so a prefix of them holds the frequent, short sessions and 4× the
// sessions would be more than 4× the work. The MVMM's time is one candidate
// tree, grown once, its K ε-views and the σ learning.
func Fig12(c *Corpus) Fig12Result {
	full := slices.Clone(c.TrainAggFull)
	rand.New(rand.NewSource(12)).Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
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
			markov.NewMVMM(t, markov.DefaultEpsilons(), vocab,
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
	headers = append(headers, "linearity")
	rows := [][]string{}
	for i, name := range r.Models {
		row := []string{name}
		for _, v := range r.Seconds[i] {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, append(row, fmt.Sprintf("%.2f", r.LinearityRatio(i))))
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
