package eval

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/pairwise"
	"repro/internal/query"
)

func TestNDCGPerfectListScoresOne(t *testing.T) {
	ratings := []int{5, 4, 3, 2, 1}
	if got := NDCG(ratings, ratings, 5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v", got)
	}
}

func TestNDCGEmptyAndZeroRatings(t *testing.T) {
	if got := NDCG([]int{0, 0}, []int{5, 4}, 5); got != 0 {
		t.Fatalf("all-zero ratings NDCG = %v", got)
	}
	if got := NDCG(nil, nil, 5); got != 0 {
		t.Fatalf("empty NDCG = %v", got)
	}
}

func TestNDCGPositionDiscount(t *testing.T) {
	// The top ground-truth query at rank 1 beats it at rank 2.
	ideal := []int{5}
	atTop := NDCG([]int{5, 0}, ideal, 5)
	atSecond := NDCG([]int{0, 5}, ideal, 5)
	if atTop <= atSecond {
		t.Fatalf("discount violated: rank1 %v <= rank2 %v", atTop, atSecond)
	}
	if math.Abs(atTop-1) > 1e-12 {
		t.Fatalf("single relevant at top = %v, want 1", atTop)
	}
	// Eq. 11 with log10: rating 5 at position 2 has DCG 31/log10(3).
	want := (31 / math.Log10(3)) / (31 / math.Log10(2))
	if math.Abs(atSecond-want) > 1e-12 {
		t.Fatalf("rank-2 NDCG = %v, want %v", atSecond, want)
	}
}

func TestNDCGAtCutoff(t *testing.T) {
	ideal := []int{5, 4}
	// A relevant item beyond the cutoff contributes nothing.
	if got := NDCG([]int{0, 0, 5}, ideal, 2); got != 0 {
		t.Fatalf("beyond-cutoff NDCG@2 = %v", got)
	}
}

func TestGroundTruthRanking(t *testing.T) {
	// Prefix [1] followed by 2 (x60), 3 (x40), 4 (x5).
	agg := []query.Session{
		{Queries: query.Seq{1, 2}, Count: 60},
		{Queries: query.Seq{1, 3}, Count: 40},
		{Queries: query.Seq{1, 4}, Count: 5},
	}
	gt := BuildGroundTruth(agg, 5)
	got := gt.Lookup(query.Seq{1})
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("ground truth = %v", got)
	}
	if r := gt.Rating(query.Seq{1}, 2); r != 5 {
		t.Fatalf("rating(top) = %d, want 5", r)
	}
	if r := gt.Rating(query.Seq{1}, 3); r != 4 {
		t.Fatalf("rating(second) = %d, want 4", r)
	}
	if r := gt.Rating(query.Seq{1}, 99); r != 0 {
		t.Fatalf("rating(absent) = %d, want 0", r)
	}
	if gt.Lookup(query.Seq{9}) != nil {
		t.Fatal("unknown prefix returned ground truth")
	}
}

func TestGroundTruthTruncatesToTopN(t *testing.T) {
	var agg []query.Session
	for q := query.ID(2); q < 12; q++ {
		agg = append(agg, query.Session{Queries: query.Seq{1, q}, Count: uint64(20 - q)})
	}
	gt := BuildGroundTruth(agg, 5)
	if got := gt.Lookup(query.Seq{1}); len(got) != 5 {
		t.Fatalf("top list length = %d, want 5", len(got))
	}
}

func TestGroundTruthContextsByLength(t *testing.T) {
	agg := []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 10},
		{Queries: query.Seq{4, 5}, Count: 10},
	}
	gt := BuildGroundTruth(agg, 5)
	if n := len(gt.Contexts(0)); n != 3 { // [1], [1,2], [4]
		t.Fatalf("all contexts = %d, want 3", n)
	}
	if n := len(gt.Contexts(1)); n != 2 {
		t.Fatalf("length-1 contexts = %d, want 2", n)
	}
	if n := len(gt.Contexts(2)); n != 1 {
		t.Fatalf("length-2 contexts = %d, want 1", n)
	}
	if gt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", gt.Len())
	}
}

func TestGroundTruthLookupAppendLeavesRanking(t *testing.T) {
	// Lookup hands out the first TopN entries of the N-gram's frozen
	// ranking. An append to it must not write into the entries past TopN,
	// which a larger TopN, or the N-gram itself, would read next.
	var agg []query.Session
	for q := query.ID(2); q < 9; q++ {
		agg = append(agg, query.Session{Queries: query.Seq{1, q}, Count: uint64(20 - q)})
	}
	gt := BuildGroundTruth(agg, 5)
	got := gt.Lookup(query.Seq{1})
	if len(got) != 5 || cap(got) != 5 {
		t.Fatalf("Lookup len %d cap %d, want 5 and 5", len(got), cap(got))
	}
	_ = append(got, 99)
	gt.TopN = 7
	if got := gt.Lookup(query.Seq{1}); !slices.Equal(got, []query.ID{2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("after an append, Lookup = %v, want [2 3 4 5 6 7 8]", got)
	}
}

func trainTest() ([]query.Session, *GroundTruth) {
	train := []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 20},
		{Queries: query.Seq{1, 2, 4}, Count: 10},
		{Queries: query.Seq{2, 3}, Count: 5},
	}
	test := []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 9},
		{Queries: query.Seq{1, 2, 4}, Count: 3},
	}
	return train, BuildGroundTruth(test, 5)
}

func TestMeanNDCGRewardsCorrectModel(t *testing.T) {
	train, gt := trainTest()
	vmm := markov.NewVMM(train, markov.VMMConfig{Epsilon: 0.0, Vocab: 5})
	contexts := gt.Contexts(0)
	res := MeanNDCG(vmm, gt, contexts, 5)
	if res.Contexts == 0 {
		t.Fatal("no contexts scored")
	}
	if res.NDCG <= 0.5 {
		t.Fatalf("NDCG = %v, expected a high score for a model trained on the same distribution", res.NDCG)
	}
}

func TestMeanNDCGSkipsUncovered(t *testing.T) {
	train, gt := trainTest()
	ngram := markov.NewNGram(train, 5)
	// Add a context the N-gram cannot cover.
	contexts := append(gt.Contexts(0), query.Seq{9, 9, 9})
	res := MeanNDCG(ngram, gt, contexts, 5)
	if res.Contexts != len(contexts)-1 {
		t.Fatalf("scored %d contexts, want %d", res.Contexts, len(contexts)-1)
	}
}

func TestCoverage(t *testing.T) {
	train, _ := trainTest()
	adj := pairwise.NewAdjacency(train, 5)
	contexts := []query.Seq{{1}, {2}, {99}, {3}}
	// Covered: [1] (followers 2), [2] (followers 3,4). Not: [99] unseen,
	// [3] final-position only.
	if got := Coverage(adj, contexts); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("coverage = %v, want 0.5", got)
	}
	if got := Coverage(adj, nil); got != 0 {
		t.Fatalf("coverage of empty set = %v", got)
	}
}

func TestTrainStats(t *testing.T) {
	train := []query.Session{
		{Queries: query.Seq{1, 2}, Count: 3},
		{Queries: query.Seq{7}, Count: 9},
	}
	ts := NewTrainStats(train)
	if !ts.Seen(1) || !ts.Seen(7) || ts.Seen(99) {
		t.Fatal("Seen wrong")
	}
	if !ts.InMultiQuerySession(1) || ts.InMultiQuerySession(7) {
		t.Fatal("InMultiQuerySession wrong")
	}
	if !ts.HasFollower(1) || ts.HasFollower(2) || ts.HasFollower(7) {
		t.Fatal("HasFollower wrong")
	}
}

func TestClassifyReasons(t *testing.T) {
	train, _ := trainTest()
	ts := NewTrainStats(append(train, query.Session{Queries: query.Seq{8}, Count: 2}))
	adj := pairwise.NewAdjacency(train, 6)
	ngram := markov.NewNGram(train, 6)

	if r := ts.Classify(adj, query.Seq{1}, false); r != ReasonCovered {
		t.Fatalf("covered context classified %v", r)
	}
	if r := ts.Classify(adj, query.Seq{99}, false); r != ReasonNewQuery {
		t.Fatalf("new query classified %v", r)
	}
	if r := ts.Classify(adj, query.Seq{8}, false); r != ReasonSingletonOnly {
		t.Fatalf("singleton query classified %v", r)
	}
	if r := ts.Classify(adj, query.Seq{3}, false); r != ReasonLastPosOnly {
		t.Fatalf("last-position query classified %v", r)
	}
	// N-gram reason 4: last query trainable but full context untrained.
	if r := ts.Classify(ngram, query.Seq{9, 1}, true); r != ReasonUntrainedGram {
		t.Fatalf("untrained n-gram context classified %v", r)
	}
}

func TestReasonCounts(t *testing.T) {
	train, _ := trainTest()
	ts := NewTrainStats(train)
	adj := pairwise.NewAdjacency(train, 6)
	contexts := []query.Seq{{1}, {99}, {3}}
	counts := ReasonCounts(adj, ts, contexts, false)
	if counts[ReasonCovered] != 1 || counts[ReasonNewQuery] != 1 || counts[ReasonLastPosOnly] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestLogLossOrdersModels(t *testing.T) {
	train, _ := trainTest()
	test := []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 1},
		{Queries: query.Seq{2, 3}, Count: 1},
	}
	vmm := markov.NewVMM(train, markov.VMMConfig{Epsilon: 0.0, Vocab: 5})
	// A deliberately blind model: uniform over vocabulary.
	uniform := uniformModel{vocab: 5}
	lVMM := LogLoss(vmm, test, 5)
	lUni := LogLoss(uniform, test, 5)
	if lVMM >= lUni {
		t.Fatalf("trained model log-loss %v not better than uniform %v", lVMM, lUni)
	}
	if lVMM < 0 {
		t.Fatalf("log-loss negative: %v", lVMM)
	}
	if got := LogLoss(vmm, nil, 5); got != 0 {
		t.Fatalf("log-loss on empty test = %v", got)
	}
}

type uniformModel struct{ vocab int }

func (u uniformModel) Name() string { return "uniform" }
func (u uniformModel) Predict(ctx query.Seq, n int) []model.Prediction {
	return nil
}
func (u uniformModel) Prob(ctx query.Seq, q query.ID) float64 { return 1 / float64(u.vocab) }
func (u uniformModel) Covers(ctx query.Seq) bool              { return true }

func TestContextEntropyDecreases(t *testing.T) {
	// Build sessions where context sharply disambiguates: the Fig. 2 shape.
	sessions := []query.Session{
		{Queries: query.Seq{1, 5, 6}, Count: 50},
		{Queries: query.Seq{2, 5, 7}, Count: 50},
		{Queries: query.Seq{3, 5, 8}, Count: 50},
		{Queries: query.Seq{4, 5, 9}, Count: 50},
	}
	h := ContextEntropy(sessions, 2)
	if len(h) != 3 {
		t.Fatalf("entropy vector length %d", len(h))
	}
	if !(h[0] > h[2]) {
		t.Fatalf("entropy did not drop with context: %v", h)
	}
	for _, v := range h {
		if v < 0 {
			t.Fatalf("negative entropy: %v", h)
		}
	}
}

func TestContextEntropyEmptySessions(t *testing.T) {
	h := ContextEntropy(nil, 3)
	for _, v := range h {
		if v != 0 {
			t.Fatalf("entropy on empty data = %v", h)
		}
	}
}

type fakeOracle map[string]bool

func (f fakeOracle) Related(a, b string) bool { return f[a+"|"+b] }

func TestUserStudyPrecisionRecall(t *testing.T) {
	d := query.NewDict()
	qa, qb, qc := d.Intern("alpha"), d.Intern("beta"), d.Intern("gamma")
	train := []query.Session{
		{Queries: query.Seq{qa, qb}, Count: 10},
		{Queries: query.Seq{qa, qc}, Count: 5},
	}
	adj := pairwise.NewAdjacency(train, 3)
	oracle := fakeOracle{"alpha|beta": true} // beta approved, gamma rejected
	contexts := []query.Seq{{qa}}
	res := UserStudy([]model.Predictor{adj}, contexts, d, oracle, nil, 5)
	m := res.Methods[0]
	if m.Predicted != 2 {
		t.Fatalf("predicted = %d, want 2", m.Predicted)
	}
	if m.Approved != 1 {
		t.Fatalf("approved = %d, want 1", m.Approved)
	}
	if p := m.Precision(); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("precision = %v, want 0.5", p)
	}
	if res.UniqueGroundTruth != 1 {
		t.Fatalf("pooled ground truth = %d, want 1", res.UniqueGroundTruth)
	}
	if r := res.Recall(0); math.Abs(r-1) > 1e-12 {
		t.Fatalf("recall = %v, want 1", r)
	}
	// Position-wise: beta is ranked first (count 10 > 5) and approved.
	if p := m.PrecisionAt(1); math.Abs(p-1) > 1e-12 {
		t.Fatalf("precision@1 = %v, want 1", p)
	}
	if p := m.PrecisionAt(2); p != 0 {
		t.Fatalf("precision@2 = %v, want 0", p)
	}
	if p := m.PrecisionAt(9); p != 0 {
		t.Fatalf("precision beyond topN = %v", p)
	}
}

func TestUserStudyGroundTruthApproves(t *testing.T) {
	d := query.NewDict()
	qa, qb := d.Intern("a"), d.Intern("b")
	train := []query.Session{{Queries: query.Seq{qa, qb}, Count: 10}}
	adj := pairwise.NewAdjacency(train, 2)
	gt := BuildGroundTruth([]query.Session{{Queries: query.Seq{qa, qb}, Count: 4}}, 5)
	// Without an oracle, behavioural ground truth decides approval.
	res := UserStudy([]model.Predictor{adj}, []query.Seq{{qa}}, d, nil, gt, 5)
	if res.Methods[0].Approved != 1 {
		t.Fatalf("ground-truth follower not approved: %+v", res.Methods[0])
	}
	// With an all-rejecting oracle, ground truth is ignored.
	res = UserStudy([]model.Predictor{adj}, []query.Seq{{qa}}, d, fakeOracle{}, gt, 5)
	if res.Methods[0].Approved != 0 {
		t.Fatalf("oracle rejection overridden by ground truth: %+v", res.Methods[0])
	}
}

func TestUserStudyPoolsAcrossMethods(t *testing.T) {
	d := query.NewDict()
	qa, qb, qc := d.Intern("a"), d.Intern("b"), d.Intern("c")
	train := []query.Session{
		{Queries: query.Seq{qa, qb}, Count: 10},
		{Queries: query.Seq{qa, qc}, Count: 10},
		{Queries: query.Seq{qc, qa, qb}, Count: 2},
	}
	adj := pairwise.NewAdjacency(train, 3)
	co := pairwise.NewCooccurrence(train, 3)
	oracle := fakeOracle{"a|b": true, "a|c": true}
	res := UserStudy([]model.Predictor{adj, co}, []query.Seq{{qa}}, d, oracle, nil, 5)
	// Both methods approve b and c for context [a]: pooled unique = 2.
	if res.UniqueGroundTruth != 2 {
		t.Fatalf("pooled = %d, want 2", res.UniqueGroundTruth)
	}
	for i := range res.Methods {
		if r := res.Recall(i); r <= 0 || r > 1 {
			t.Fatalf("recall[%d] = %v", i, r)
		}
	}
}

func TestIdealRatings(t *testing.T) {
	gt := BuildGroundTruth([]query.Session{
		{Queries: query.Seq{1, 2}, Count: 5},
		{Queries: query.Seq{1, 3}, Count: 2},
	}, 5)
	got := IdealRatings(gt, query.Seq{1})
	if len(got) != 2 || got[0] != 5 || got[1] != 4 {
		t.Fatalf("ideal ratings = %v", got)
	}
}

func TestNDCGSwapHigherRatedEarlierNeverHurts(t *testing.T) {
	// Moving a higher-rated item to an earlier position never lowers NDCG.
	f := func(raw [5]uint8) bool {
		ratings := make([]int, 5)
		for i, v := range raw {
			ratings[i] = int(v % 6)
		}
		ideal := append([]int(nil), ratings...)
		sort.Sort(sort.Reverse(sort.IntSlice(ideal)))
		base := NDCG(ratings, ideal, 5)
		for i := 0; i < 4; i++ {
			if ratings[i] < ratings[i+1] {
				swapped := append([]int(nil), ratings...)
				swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
				if NDCG(swapped, ideal, 5) < base-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNDCGBoundedByOne(t *testing.T) {
	f := func(raw [5]uint8) bool {
		ratings := make([]int, 5)
		for i, v := range raw {
			ratings[i] = int(v % 6)
		}
		ideal := append([]int(nil), ratings...)
		sort.Sort(sort.Reverse(sort.IntSlice(ideal)))
		n := NDCG(ratings, ideal, 5)
		return n >= 0 && n <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
