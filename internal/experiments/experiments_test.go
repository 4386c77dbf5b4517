package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiled"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/predictortest"
)

// The integration tests share one small corpus and model set; building them
// takes a few seconds, so they are constructed once.
var (
	once       sync.Once
	testCorpus *Corpus
	testModels *Models
	buildErr   error
)

func setup(t *testing.T) (*Corpus, *Models) {
	t.Helper()
	once.Do(func() {
		cfg := SmallCorpusConfig()
		testCorpus, buildErr = BuildCorpus(cfg)
		if buildErr == nil {
			testModels, buildErr = TrainModels(testCorpus)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return testCorpus, testModels
}

func TestCorpusShape(t *testing.T) {
	c, _ := setup(t)
	if c.Vocab() == 0 {
		t.Fatal("empty vocabulary")
	}
	if len(c.TrainAgg) == 0 || len(c.TestAgg) == 0 {
		t.Fatal("empty aggregated sessions")
	}
	if len(c.TrainAgg) >= len(c.TrainAggFull) {
		t.Fatal("reduction removed nothing")
	}
	if c.GroundTruth.Len() == 0 {
		t.Fatal("no ground truth")
	}
	if c.RetainedMass <= 0.3 || c.RetainedMass >= 1 {
		t.Fatalf("retained mass = %v, implausible", c.RetainedMass)
	}
}

func TestFig1OrderSensitiveShare(t *testing.T) {
	c, _ := setup(t)
	r := Fig1(c, 20000)
	if r.Sample == 0 {
		t.Fatal("empty sample")
	}
	// Paper: order-sensitive patterns total 34.34%. The generator encodes
	// that mix; sampling noise allows a small band.
	if math.Abs(r.OrderSensitive-0.3434) > 0.03 {
		t.Fatalf("order-sensitive share = %v, want ~0.3434", r.OrderSensitive)
	}
}

func TestFig2EntropyDropsWithContext(t *testing.T) {
	c, _ := setup(t)
	r := Fig2(c)
	if len(r.Entropy) != 5 {
		t.Fatalf("entropy lengths = %d", len(r.Entropy))
	}
	// The paper's curve "drops dramatically": require a strict drop from
	// no context to 2 queries of context.
	if !(r.Entropy[0] > r.Entropy[1] && r.Entropy[1] > r.Entropy[2]) {
		t.Fatalf("entropy not decreasing: %v", r.Entropy)
	}
}

func TestTable4MeanSessionLength(t *testing.T) {
	c, _ := setup(t)
	r := Table4(c)
	// Jansen et al.: average session length 2–3.
	if m := r.Train.MeanLength(); m < 1.8 || m > 3.2 {
		t.Fatalf("train mean length = %v", m)
	}
	if r.Train.Sessions < uint64(r.Test.Sessions) {
		t.Fatal("train window smaller than test window")
	}
}

func TestFig6PowerLaw(t *testing.T) {
	c, _ := setup(t)
	r := Fig6(c)
	if r.TrainSlope >= -0.4 {
		t.Fatalf("train slope = %v, want strongly negative (power law)", r.TrainSlope)
	}
	if r.TrainR2 < 0.7 {
		t.Fatalf("train R² = %v, want a good log-log fit", r.TrainR2)
	}
}

// servedName is the figures' row for the MVMM as a server answers from it.
const servedName = "MVMM (compiled, quantised)"

func TestFig8SequenceBeatsPairwise(t *testing.T) {
	c, m := setup(t)
	panel := Accuracy(c, m.Fig8Set(), 5) // NDCG@5 panel
	idx := map[string]int{}
	for i, name := range panel.Models {
		idx[name] = i
	}
	adj := panel.NDCG[idx["Adjacency"]]
	cooc := panel.NDCG[idx["Co-occurrence"]]
	// Headline claim: sequence methods match or beat pair-wise at every
	// length and win strictly once real context is available (length >= 2;
	// at length 1 both see identical evidence and tie — see EXPERIMENTS.md).
	// It holds for the interpreted mixture and for the served bytes alike.
	for _, name := range []string{"MVMM", servedName} {
		mvmm := panel.NDCG[idx[name]]
		for l := range panel.Lengths {
			if mvmm[l] < adj[l]-1e-9 {
				t.Errorf("length %d: %s %.4f < Adj %.4f", panel.Lengths[l], name, mvmm[l], adj[l])
			}
			if mvmm[l] < cooc[l]-1e-9 {
				t.Errorf("length %d: %s %.4f < Co-occ %.4f", panel.Lengths[l], name, mvmm[l], cooc[l])
			}
		}
		if !(mvmm[1] > adj[1] && mvmm[1] > cooc[1]) {
			t.Errorf("length 2: %s %.4f did not strictly beat Adj %.4f / Co-occ %.4f",
				name, mvmm[1], adj[1], cooc[1])
		}
	}
	// Pair-wise accuracy decays with context length (monotone trend from
	// length 1 to 4).
	if !(adj[0] > adj[len(adj)-1]) {
		t.Errorf("Adjacency accuracy did not decay with context length: %v", adj)
	}
	// Adjacency beats Co-occurrence (order information helps).
	var adjMean, coocMean float64
	for l := range panel.Lengths {
		adjMean += adj[l]
		coocMean += cooc[l]
	}
	if adjMean <= coocMean {
		t.Errorf("Adj mean %.4f <= Co-occ mean %.4f", adjMean/4, coocMean/4)
	}
}

func TestFig9MVMMCompetitiveWithBestVMM(t *testing.T) {
	c, m := setup(t)
	panel := Accuracy(c, m.Fig9Set(), 5)
	idx := map[string]int{}
	for i, name := range panel.Models {
		idx[name] = i
	}
	mixtures := []string{"MVMM", servedName}
	best := make([]float64, len(panel.Lengths))
	for name, i := range idx {
		if slices.Contains(mixtures, name) {
			continue
		}
		for l := range panel.Lengths {
			if panel.NDCG[i][l] > best[l] {
				best[l] = panel.NDCG[i][l]
			}
		}
	}
	// Paper: MVMM achieves comparable accuracy to the best single VMM.
	for _, name := range mixtures {
		mvmm := panel.NDCG[idx[name]]
		for l := range panel.Lengths {
			if mvmm[l] < 0.9*best[l] {
				t.Errorf("length %d: %s %.4f far below best VMM %.4f", panel.Lengths[l], name, mvmm[l], best[l])
			}
		}
	}
}

// TestServedRowMatchesInterpreted: the bytes a server maps rank exactly as
// the interpreted mixture does — every NDCG@1/3/5 value at every context
// length agrees to 1e-9 — so the figures' claims about the MVMM are claims
// about what is served.
func TestServedRowMatchesInterpreted(t *testing.T) {
	c, m := setup(t)
	for _, n := range []int{1, 3, 5} {
		panel := Accuracy(c, []model.Predictor{m.MVMM, m.Served}, n)
		for l, length := range panel.Lengths {
			if d := math.Abs(panel.NDCG[0][l] - panel.NDCG[1][l]); d > 1e-9 {
				t.Errorf("NDCG@%d length %d: served %.12f, interpreted %.12f", n, length, panel.NDCG[1][l], panel.NDCG[0][l])
			}
		}
	}
}

// TestModelsHoldPredictorContract runs the model.Predictor suite over every
// compared model, the served bytes included, on every accuracy and coverage
// context the figures score.
func TestModelsHoldPredictorContract(t *testing.T) {
	c, m := setup(t)
	ctxs := append(c.TestContexts(0, 0), c.CoverageContexts(0, 0)...)
	for _, p := range m.AllSet() {
		t.Run(p.Name(), func(t *testing.T) { predictortest.Run(t, p, ctxs) })
	}
}

func TestFig10CoverageOrdering(t *testing.T) {
	c, m := setup(t)
	r := Fig10(c, m)
	cov := map[string]float64{}
	for i, name := range r.Models {
		cov[name] = r.Coverage[i]
	}
	// Paper: Co-occ has the best coverage; Adj/VMM/MVMM tie below it;
	// N-gram is by far the worst.
	if cov["Co-occurrence"] < cov["Adjacency"] {
		t.Errorf("Co-occ coverage %.4f < Adj %.4f", cov["Co-occurrence"], cov["Adjacency"])
	}
	if math.Abs(cov["Adjacency"]-cov["MVMM"]) > 1e-9 {
		t.Errorf("Adj %.4f != MVMM %.4f (partial-match strategy should tie them)", cov["Adjacency"], cov["MVMM"])
	}
	if cov["N-gram"] >= cov["MVMM"] {
		t.Errorf("N-gram coverage %.4f >= MVMM %.4f", cov["N-gram"], cov["MVMM"])
	}
	if cov[servedName] != cov["MVMM"] {
		t.Errorf("served coverage %v != interpreted MVMM %v", cov[servedName], cov["MVMM"])
	}
}

func TestFig11NGramCoverageCollapses(t *testing.T) {
	c, m := setup(t)
	r := Fig11(c, m)
	idx := map[string]int{}
	for i, name := range r.Models {
		idx[name] = i
	}
	ng := r.Coverage[idx["N-gram"]]
	mv := r.Coverage[idx["MVMM"]]
	if served := r.Coverage[idx[servedName]]; !slices.Equal(served, mv) {
		t.Errorf("served coverage by length %v != interpreted MVMM %v", served, mv)
	}
	last := len(r.Lengths) - 1
	// N-gram decays below MVMM everywhere, and collapses at long contexts
	// relative to its own length-1 coverage.
	for l := range r.Lengths {
		if ng[l] > mv[l]+1e-9 {
			t.Errorf("length %d: N-gram %.4f > MVMM %.4f", r.Lengths[l], ng[l], mv[l])
		}
	}
	if ng[last] > 0.5*ng[0] {
		t.Errorf("N-gram coverage did not collapse: %v", ng)
	}
	// VMM/MVMM decay sub-linearly: still covering a sizeable share at
	// length 4.
	if mv[last] < 0.25 {
		t.Errorf("MVMM coverage at length 4 = %.4f, want respectable", mv[last])
	}
}

func TestTable6ReasonsAccountForAllContexts(t *testing.T) {
	c, m := setup(t)
	r := Table6(c, m)
	total := len(evalContexts(c))
	row := map[string][eval.NumReasons]int{}
	for i, name := range r.Models {
		row[name] = r.Reasons[i]
		sum := 0
		for _, v := range r.Reasons[i] {
			sum += v
		}
		if sum != total {
			t.Errorf("%s: reasons sum %d != contexts %d", name, sum, total)
		}
	}
	if row[servedName] != row["MVMM"] {
		t.Errorf("served row %v != interpreted MVMM row %v", row[servedName], row["MVMM"])
	}
}

func TestTable7FootprintOrdering(t *testing.T) {
	_, m := setup(t)
	r, err := Table7(m)
	if err != nil {
		t.Fatal(err)
	}
	size := map[string]int64{}
	for i, name := range r.Models {
		size[name] = r.Bytes[i]
	}
	// MVMM is the largest; VMM models exceed pair-wise models; the union
	// PST equals the ε=0 full tree (components are nested).
	if size["MVMM"] < size["VMM (0)"] {
		t.Errorf("MVMM %d < VMM(0.0) %d", size["MVMM"], size["VMM (0)"])
	}
	if size["VMM (0)"] < size["Adjacency"] {
		t.Errorf("VMM(0.0) %d < Adj %d", size["VMM (0)"], size["Adjacency"])
	}
	if r.MVMMUnion != r.VMM00Size {
		t.Errorf("union PST %d != VMM(0.0) nodes %d", r.MVMMUnion, r.VMM00Size)
	}
}

// maxCPS5OverCPS3 caps the compact blob's size as a share of the exact one:
// 0.394 on this corpus when the ceiling was set, and 0.48 = the 0.6 × 0.8 the
// two steps CPS3 → quantised → compact were each allowed.
const maxCPS5OverCPS3 = 0.48

// TestTable7CompiledRowsMatchBlobBytes: Table VII's compiled rows must be
// the exact byte lengths of the serving blobs production maps — the
// AppendFlat/AppendFlat5 output — not an estimate, and the quantised row
// must realise a substantial reduction over the exact flat form.
func TestTable7CompiledRowsMatchBlobBytes(t *testing.T) {
	_, m := setup(t)
	r, err := Table7(m)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compiled.Compile(m.MVMM)
	if err != nil {
		t.Fatal(err)
	}
	size := map[string]int64{}
	for i, name := range r.Models {
		size[name] = r.Bytes[i]
	}
	if want := int64(len(comp.AppendFlat(nil))); size["MVMM (compiled CPS3)"] != want || r.CPS3Bytes != want {
		t.Errorf("CPS3 row %d (field %d) != len(AppendFlat) %d", size["MVMM (compiled CPS3)"], r.CPS3Bytes, want)
	}
	blob5, err := comp.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(blob5)); size["MVMM (compiled CPS5, quantised)"] != want || r.CPS5Bytes != want {
		t.Errorf("CPS5 row %d (field %d) != len(AppendFlat5) %d", size["MVMM (compiled CPS5, quantised)"], r.CPS5Bytes, want)
	}
	if ratio := float64(r.CPS5Bytes) / float64(r.CPS3Bytes); ratio > maxCPS5OverCPS3 {
		t.Errorf("quantised CPS5 blob %d is %.4f of exact CPS3 blob %d, over the %.2f ceiling",
			r.CPS5Bytes, ratio, r.CPS3Bytes, maxCPS5OverCPS3)
	}
	// The compiled serving blob must also undercut the serialized
	// interpreted mixture it replaces — the deployment argument of Table VII.
	if r.CPS5Bytes >= size["MVMM"] {
		t.Errorf("CPS5 blob %d >= interpreted MVMM %d", r.CPS5Bytes, size["MVMM"])
	}
}

func TestUserStudyShape(t *testing.T) {
	c, m := setup(t)
	r := UserStudy(c, m, 100)
	if r.Contexts == 0 || r.UniqueGroundTruth == 0 {
		t.Fatal("empty study")
	}
	prec := map[string]float64{}
	pred := map[string]int{}
	for _, ms := range r.Methods {
		if ms.Predicted == 0 {
			t.Fatalf("%s predicted nothing", ms.Name)
		}
		prec[ms.Name] = ms.Precision()
		pred[ms.Name] = ms.Predicted
		if p := ms.Precision(); p < 0 || p > 1 {
			t.Fatalf("%s precision = %v", ms.Name, p)
		}
	}
	// Paper Table VIII / Fig. 13 orderings: MVMM leads precision, the
	// sequence models beat Co-occurrence, and the pair-wise methods predict
	// more queries than the sequence methods.
	if prec["MVMM"] <= prec["Co-occurrence"] {
		t.Errorf("MVMM precision %.4f <= Co-occ %.4f", prec["MVMM"], prec["Co-occurrence"])
	}
	if prec["MVMM"] <= prec["Adjacency"] {
		t.Errorf("MVMM precision %.4f <= Adj %.4f", prec["MVMM"], prec["Adjacency"])
	}
	if prec["N-gram"] <= prec["Co-occurrence"] {
		t.Errorf("N-gram precision %.4f <= Co-occ %.4f", prec["N-gram"], prec["Co-occurrence"])
	}
	if pred["Co-occurrence"] <= pred["MVMM"] || pred["Adjacency"] <= pred["N-gram"] {
		t.Errorf("pair-wise methods should predict more queries: %v", pred)
	}
}

func TestAblationEpsilonTreeShrinks(t *testing.T) {
	c, _ := setup(t)
	rows := AblationEpsilon(c, []float64{0.0, 0.1, 0.5})
	if !(rows[0].Nodes >= rows[1].Nodes && rows[1].Nodes >= rows[2].Nodes) {
		t.Fatalf("tree size not monotone in ε: %+v", rows)
	}
}

func TestAblationDBoundDepthGrowsNodes(t *testing.T) {
	c, _ := setup(t)
	rows := AblationDBound(c, []int{1, 3})
	if rows[0].Nodes >= rows[1].Nodes {
		t.Fatalf("D=1 nodes %d >= D=3 nodes %d", rows[0].Nodes, rows[1].Nodes)
	}
}

func TestAblationReductionMassMonotone(t *testing.T) {
	c, _ := setup(t)
	rows := AblationReduction(c, []uint64{0, 5})
	if rows[0].Mass < rows[1].Mass {
		t.Fatalf("retained mass not monotone: %+v", rows)
	}
	if rows[0].Coverage < rows[1].Coverage {
		t.Fatalf("coverage should not improve with harsher reduction: %+v", rows)
	}
}

func TestRendersProduceOutput(t *testing.T) {
	c, m := setup(t)
	var buf bytes.Buffer
	Fig1(c, 1000).Render(&buf)
	Fig2(c).Render(&buf)
	Table4(c).Render(&buf)
	Fig5(c).Render(&buf)
	Fig6(c).Render(&buf)
	Fig7(c).Render(&buf)
	Table5(c, &buf)
	Accuracy(c, m.Fig8Set(), 1).Render(&buf, "test panel")
	Fig10(c, m).Render(&buf)
	Fig11(c, m).Render(&buf)
	Table6(c, m).Render(&buf)
	if t7, err := Table7(m); err == nil {
		t7.Render(&buf)
	} else {
		t.Fatal(err)
	}
	UserStudy(c, m, 20).Render(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. 1", "Fig. 2", "Table IV", "Fig. 5", "Fig. 6", "Fig. 7",
		"Table V", "Fig. 10", "Fig. 11", "Table VI", "Table VII", "Table VIII", "Fig. 13", "Fig. 14"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestExtensionsComparison(t *testing.T) {
	c, m := setup(t)
	r, err := Extensions(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Models) != 4 {
		t.Fatalf("models = %v", r.Models)
	}
	vals := map[string]int{}
	for i, name := range r.Models {
		vals[name] = i
		if r.NDCG5[i] < 0 || r.NDCG5[i] > 1 || r.Coverage[i] < 0 || r.Coverage[i] > 1 {
			t.Fatalf("%s out of range: %v / %v", name, r.NDCG5[i], r.Coverage[i])
		}
	}
	// The paper's Sec. II critique: cluster-based recommenders suggest
	// replacements, not next queries, so they trail MVMM on next-query NDCG.
	if r.NDCG5[vals["Cluster"]] >= r.NDCG5[vals["MVMM"]] {
		t.Errorf("cluster NDCG %.4f >= MVMM %.4f", r.NDCG5[vals["Cluster"]], r.NDCG5[vals["MVMM"]])
	}
}

func TestDriftRetrainingHelpsCoverage(t *testing.T) {
	c, _ := setup(t)
	r, err := Drift(c, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slices != 2 {
		t.Fatalf("slices = %d", r.Slices)
	}
	// By the last slice the retrained model must cover at least as much as
	// the stale one (it has seen the emerging topics).
	last := r.Slices - 1
	if r.RetrCov[last] < r.StaleCov[last] {
		t.Errorf("retrained coverage %.4f < stale %.4f", r.RetrCov[last], r.StaleCov[last])
	}
}
