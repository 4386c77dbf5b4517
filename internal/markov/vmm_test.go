package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func vmmTrainingSessions() []query.Session {
	return []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 20},
		{Queries: query.Seq{4, 2, 5}, Count: 20},
		{Queries: query.Seq{2, 3}, Count: 10},
		{Queries: query.Seq{6, 1, 2, 3}, Count: 4},
		{Queries: query.Seq{9}, Count: 7},
	}
}

func TestVMMBackTracksAlongSuffixes(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0.01, Vocab: 10})
	// Context [8, 1, 2] was never seen, but its suffix [1, 2] was: the VMM
	// must back off and predict 3 (the follower of [1,2]).
	top := m.Predict(query.Seq{8, 1, 2}, 1)
	if len(top) != 1 || top[0].Query != 3 {
		t.Fatalf("Predict([8,1,2]) = %v, want 3", top)
	}
}

func TestVMMContextDisambiguation(t *testing.T) {
	// The "Indonesia => Java" effect: followers of 2 depend on what
	// preceded it. After [1,2] the answer is 3; after [4,2] it is 5.
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0.01, Vocab: 10})
	if top := m.Predict(query.Seq{1, 2}, 1); len(top) != 1 || top[0].Query != 3 {
		t.Fatalf("Predict([1,2]) = %v, want 3", top)
	}
	if top := m.Predict(query.Seq{4, 2}, 1); len(top) != 1 || top[0].Query != 5 {
		t.Fatalf("Predict([4,2]) = %v, want 5", top)
	}
}

func TestVMMDBoundCapsDepth(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, D: 2, Vocab: 10})
	if m.Depth() > 2 {
		t.Fatalf("depth = %d exceeds bound 2", m.Depth())
	}
	unbounded := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, Vocab: 10})
	if unbounded.Depth() < 3 {
		t.Fatalf("unbounded depth = %d, want >= 3", unbounded.Depth())
	}
}

func TestVMMMinSupportFilters(t *testing.T) {
	strict := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, MinSupport: 5, Vocab: 10})
	// The contexts only supported by the frequency-4 session must be gone.
	if _, ok := nodeSet(strict)[(query.Seq{6, 1, 2}).Key()]; ok {
		t.Fatal("low-support context survived MinSupport filter")
	}
	loose := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, Vocab: 10})
	if loose.NumNodes() <= strict.NumNodes() {
		t.Fatalf("filtering did not shrink the tree: %d vs %d", strict.NumNodes(), loose.NumNodes())
	}
}

func TestVMMSuffixClosure(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, Vocab: 10})
	// PST invariant: if a context is in the tree, all its suffixes are too.
	nodes := nodeSet(m)
	for k := range nodes {
		for sk := k[4:]; len(sk) > 0; sk = sk[4:] {
			if _, ok := nodes[sk]; !ok {
				t.Fatalf("suffix closure violated: %v present but suffix %v missing",
					query.SeqFromKey(k), query.SeqFromKey(sk))
			}
		}
	}
}

func TestVMMCoversMatchesLastQueryEvidence(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0.05, Vocab: 10})
	// Query 3 only ever appears at session ends: no follower evidence.
	if m.Covers(query.Seq{3}) {
		t.Fatal("query with no followers should not be covered")
	}
	// Query 9 only appears in a singleton session.
	if m.Covers(query.Seq{9}) {
		t.Fatal("singleton-only query should not be covered")
	}
	if !m.Covers(query.Seq{3, 2}) { // last query 2 has followers
		t.Fatal("context ending in a trained query should be covered")
	}
	if m.Covers(nil) {
		t.Fatal("empty context should not be covered")
	}
}

func TestVMMProbSmoothedAndNormalised(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0.01, Vocab: 10})
	ctx := query.Seq{1, 2}
	var sum float64
	for q := query.ID(0); q < 10; q++ {
		p := m.Prob(ctx, q)
		if p < 0 {
			t.Fatalf("negative probability for %d", q)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if p := m.Prob(query.Seq{999}, 1); p != 0 {
		t.Fatalf("Prob on uncovered context = %v", p)
	}
}

func TestVMMRootProbIsPrior(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0.01, Vocab: 10})
	if p := m.ProbEscape(nil, 2); p <= 0 {
		t.Fatalf("root prior for query 2 = %v", p)
	}
	// Prob is model.Predictor's: the empty context is uncovered.
	if p := m.Prob(nil, 2); p != 0 {
		t.Fatalf("Prob(empty ctx) = %v, want 0", p)
	}
}

func TestEscapeTableCounts(t *testing.T) {
	sessions := []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 4},
		{Queries: query.Seq{2, 3}, Count: 6},
	}
	et := NewEscapeTable(sessions, 0)
	// Window [2,3] occurs in both sessions: 4 + 6 = 10 occurrences,
	// 6 of them at a session start.
	if occ := et.Occurrences(query.Seq{2, 3}); occ != 10 {
		t.Fatalf("occ([2,3]) = %d, want 10", occ)
	}
	if so := et.StartOccurrences(query.Seq{2, 3}); so != 6 {
		t.Fatalf("startOcc([2,3]) = %d, want 6", so)
	}
	if occ := et.Occurrences(query.Seq{1}); occ != 4 {
		t.Fatalf("occ([1]) = %d, want 4", occ)
	}
}

func TestEscapeTableMaxLen(t *testing.T) {
	sessions := []query.Session{{Queries: query.Seq{1, 2, 3, 4}, Count: 1}}
	et := NewEscapeTable(sessions, 2)
	if et.Occurrences(query.Seq{1, 2, 3}) != 0 {
		t.Fatal("window longer than maxLen was counted")
	}
	if et.Occurrences(query.Seq{2, 3}) != 1 {
		t.Fatal("window within maxLen missing")
	}
}

func TestEscapeProbabilityEq6(t *testing.T) {
	sessions := []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 4}, // [2,3] preceded by 1
		{Queries: query.Seq{2, 3}, Count: 6},    // [2,3] at start
	}
	et := NewEscapeTable(sessions, 0)
	// Escape from unobserved [9, 2, 3]: suffix [2, 3] occurred 10 times,
	// 6 at a start. Eq. (6): 6/10.
	if e := et.Escape(query.Seq{9, 2, 3}); math.Abs(e-0.6) > 1e-12 {
		t.Fatalf("escape = %v, want 0.6", e)
	}
	// Suffix never observed: escape 1 (no evidence to penalise with).
	if e := et.Escape(query.Seq{9, 8, 7}); e != 1 {
		t.Fatalf("escape with unknown suffix = %v, want 1", e)
	}
	// Suffix observed but never at a start: floored, not zero.
	et2 := NewEscapeTable([]query.Session{{Queries: query.Seq{1, 2, 3}, Count: 5}}, 0)
	e := et2.Escape(query.Seq{9, 2, 3}) // suffix [2,3] occurs 5x, never at start
	if e <= 0 || e >= 1 {
		t.Fatalf("floored escape = %v, want in (0,1)", e)
	}
	// Single-query escape: uninformative prior.
	if e := et.Escape(query.Seq{42}); e != 0.5 {
		t.Fatalf("singleton escape = %v, want 0.5", e)
	}
}

func TestVMMProbEscapeChains(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, Vocab: 10})
	// Exact state: escape-free.
	pExact := m.ProbEscape(query.Seq{1, 2}, 3)
	if math.Abs(pExact-m.Prob(query.Seq{1, 2}, 3)) > 1e-12 {
		t.Fatalf("exact-state ProbEscape %v != Prob %v", pExact, m.Prob(query.Seq{1, 2}, 3))
	}
	// Unobserved prefix: penalised relative to the matched suffix alone.
	pEsc := m.ProbEscape(query.Seq{8, 1, 2}, 3)
	if pEsc <= 0 {
		t.Fatal("escape chain zeroed the probability")
	}
	if pEsc > pExact {
		t.Fatalf("escape did not penalise: %v > %v", pEsc, pExact)
	}
}

func TestVMMGenProb(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, Vocab: 10})
	s := query.Seq{1, 2, 3}
	want := m.ProbEscape(query.Seq{1}, 2) * m.ProbEscape(query.Seq{1, 2}, 3)
	if got := m.GenProb(s); math.Abs(got-want) > 1e-12 {
		t.Fatalf("GenProb = %v, want %v", got, want)
	}
	if p := m.GenProb(query.Seq{5}); p != 1 {
		t.Fatalf("GenProb of single query = %v, want 1 (first query given)", p)
	}
}

func TestVMMGenProbInUnitInterval(t *testing.T) {
	m := NewVMM(vmmTrainingSessions(), VMMConfig{Epsilon: 0, Vocab: 10})
	f := func(raw []uint8) bool {
		if len(raw) > 6 {
			raw = raw[:6]
		}
		s := make(query.Seq, len(raw))
		for i, v := range raw {
			s[i] = query.ID(v % 12)
		}
		p := m.GenProb(s)
		return p >= 0 && p <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVMMNameVariants(t *testing.T) {
	bounded := NewVMM(nil, VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	if bounded.Name() != "2-bounded VMM (0.1)" {
		t.Fatalf("Name = %q", bounded.Name())
	}
	unbounded := NewVMM(nil, VMMConfig{Epsilon: 0.05, Vocab: 2})
	if unbounded.Name() != "VMM (0.05)" {
		t.Fatalf("Name = %q", unbounded.Name())
	}
}

func TestVMMEmptyTraining(t *testing.T) {
	m := NewVMM(nil, VMMConfig{Epsilon: 0.05})
	if m.Covers(query.Seq{1}) {
		t.Fatal("empty model claims coverage")
	}
	if got := m.Predict(query.Seq{1}, 5); got != nil {
		t.Fatalf("empty model predicted %v", got)
	}
}

func TestVMMEpsilonMonotoneTreeSize(t *testing.T) {
	sessions := vmmTrainingSessions()
	sizes := []int{}
	for _, eps := range []float64{0.0, 0.05, 0.2, math.Inf(1)} {
		m := NewVMM(sessions, VMMConfig{Epsilon: eps, Vocab: 10})
		sizes = append(sizes, m.NumNodes())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("tree size not monotone in ε: %v", sizes)
		}
	}
}

func TestKLSmoothedFastMatchesReference(t *testing.T) {
	f := func(pc, cc [6]uint8, extra uint8) bool {
		parent, child := NewDist(), NewDist()
		for i := 0; i < 6; i++ {
			if pc[i] > 0 {
				parent.Add(query.ID(i), uint64(pc[i]))
			}
			// Child support is a subset-ish of parent's plus one novel query.
			if cc[i] > 0 && i%2 == 0 {
				child.Add(query.ID(i), uint64(cc[i]))
			}
		}
		if extra > 0 {
			child.Add(99, uint64(extra))
		}
		if parent.Total() == 0 || child.Total() == 0 {
			return true
		}
		vocab := 120
		want := klSmoothed(parent, child, vocab)
		got := klSmoothedFast(parent, child, vocab, sumPLogP(parent))
		return math.Abs(want-got) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKLSumIsDeterministic: the growth test's KL of one (parent, child)
// pair has one bit pattern, however often it is computed, so a candidate
// whose KL sits within rounding of an ε is kept or dropped the same way in
// every run.
func TestKLSumIsDeterministic(t *testing.T) {
	parent, child := NewDist(), NewDist()
	for q := 0; q < 300; q++ {
		parent.Add(query.ID(q), uint64(1+q*7919%97))
		if q%3 != 0 {
			child.Add(query.ID(q), uint64(1+q*104729%89))
		}
	}
	child.Add(1000, 5)
	const vocab = 5000
	sumPP := sumPLogP(parent)
	want := math.Float64bits(klSmoothedFast(parent, child, vocab, sumPP))
	for i := 0; i < 1000; i++ {
		if got := math.Float64bits(sumPLogP(parent)); got != math.Float64bits(sumPP) {
			t.Fatalf("call %d: Σ p log p = %x, first call %x", i, got, math.Float64bits(sumPP))
		}
		if got := math.Float64bits(klSmoothedFast(parent, child, vocab, sumPP)); got != want {
			t.Fatalf("call %d: KL = %x, first call %x", i, got, want)
		}
	}
}
