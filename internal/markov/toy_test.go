package markov

import (
	"math"
	"testing"

	"repro/internal/query"
)

// paperToySessions reproduces Table II exactly: Q = {q0, q1} and the eight
// aggregated training sessions with their frequencies. We intern q0 as ID 0
// and q1 as ID 1.
func paperToySessions() []query.Session {
	q0, q1 := query.ID(0), query.ID(1)
	return []query.Session{
		{Queries: query.Seq{q1, q0, q0}, Count: 3},
		{Queries: query.Seq{q1, q0, q1}, Count: 7},
		{Queries: query.Seq{q0, q1, q0}, Count: 1},
		{Queries: query.Seq{q0, q1, q1}, Count: 1},
		{Queries: query.Seq{q0, q0}, Count: 78},
		{Queries: query.Seq{q1, q0}, Count: 5},
		{Queries: query.Seq{q1, q1}, Count: 3},
		{Queries: query.Seq{q0}, Count: 10},
	}
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %.6f, want %.6f (±%g)", name, got, want, tol)
	}
}

// TestPaperToyExampleCandidateProbabilities checks the stage-(a) counts the
// paper reports: P(q0 | [q1, q0]) = 3/10.
func TestPaperToyExampleCandidateProbabilities(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	q0, q1 := query.ID(0), query.ID(1)

	// State q1q0 must be in the tree (the paper's S = {q1q0, q0, q1}).
	_, d, ok := m.MatchState(query.Seq{q1, q0})
	if !ok {
		t.Fatal("state q1q0 not matched")
	}
	approx(t, "P(q0|q1q0)", d.P(q0), 0.3, 1e-9)
	approx(t, "P(q1|q1q0)", d.P(q1), 0.7, 1e-9)
}

// TestPaperToyExampleKLValues verifies the two divergences the paper prints
// in stage (b): D_KL(q0 || q1q0) = 0.3449 and D_KL(q1 || q0q1) = 0.0837,
// both in log base 10, both measured from the parent's distribution to the
// child's.
func TestPaperToyExampleKLValues(t *testing.T) {
	q0, q1 := query.ID(0), query.ID(1)
	sessions := paperToySessions()

	// Rebuild the candidate distributions by hand (they are what stage (b)
	// compares): followers of q0, q1, q1q0 and q0q1 across all sessions.
	count := func(ctx query.Seq) *Dist {
		d := NewDist()
		for _, s := range sessions {
			for i := 1; i < len(s.Queries); i++ {
				k := len(ctx)
				if i >= k && s.Queries[i-k:i].Equal(ctx) {
					d.Add(s.Queries[i], s.Count)
				}
			}
		}
		return d
	}
	dQ0 := count(query.Seq{q0})
	dQ1 := count(query.Seq{q1})
	dQ1Q0 := count(query.Seq{q1, q0})
	dQ0Q1 := count(query.Seq{q0, q1})

	// Sanity: the paper's footing — q0 is followed 90 times (81×q0, 9×q1),
	// q1 20 times (16×q0, 4×q1).
	if dQ0.Total() != 90 || dQ0.Count(q0) != 81 {
		t.Fatalf("followers of q0: total=%d q0=%d, want 90/81", dQ0.Total(), dQ0.Count(q0))
	}
	if dQ1.Total() != 20 || dQ1.Count(q0) != 16 {
		t.Fatalf("followers of q1: total=%d q0=%d, want 20/16", dQ1.Total(), dQ1.Count(q0))
	}

	approx(t, "DKL(q0||q1q0)", klSmoothed(dQ0, dQ1Q0, 2), 0.3449, 5e-4)
	approx(t, "DKL(q1||q0q1)", klSmoothed(dQ1, dQ0Q1, 2), 0.0837, 5e-4)
}

// TestPaperToyExampleTreeStates checks stage (b)'s outcome with ε = 0.1:
// S = {q1q0, q0, q1} — q0q1 is pruned (KL 0.0837 < 0.1) while q1q0 is kept
// (KL 0.3449 > 0.1).
func TestPaperToyExampleTreeStates(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	q0, q1 := query.ID(0), query.ID(1)

	if m.NumNodes() != 3 {
		t.Fatalf("PST has %d nodes, want 3 (q0, q1, q1q0)", m.NumNodes())
	}
	nodes := nodeSet(m)
	for _, want := range []query.Seq{{q0}, {q1}, {q1, q0}} {
		if _, ok := nodes[want.Key()]; !ok {
			t.Fatalf("state %v missing from PST", want)
		}
	}
	if _, ok := nodes[(query.Seq{q0, q1}).Key()]; ok {
		t.Fatal("state q0q1 should have been pruned at ε = 0.1")
	}
}

// TestPaperToyExampleSequenceProbability reproduces the Sec. IV.B.2 walk:
// the probability of [q0, q1, q0, q1, q1, q0] is
// 1 × 0.1 × 0.8 × 0.7 × 0.2 × 0.8, with states e, q0, q1, q1q0, q1, q1.
func TestPaperToyExampleSequenceProbability(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	q0, q1 := query.ID(0), query.ID(1)
	seq := query.Seq{q0, q1, q0, q1, q1, q0}

	wantSteps := []float64{0.1, 0.8, 0.7, 0.2, 0.8}
	wantStates := []query.Seq{{q0}, {q1}, {q1, q0}, {q1}, {q1}}
	p := 1.0
	for i := 1; i < len(seq); i++ {
		ctx := seq[:i]
		state, d, ok := m.MatchState(ctx)
		if !ok {
			t.Fatalf("step %d: context %v unmatched", i, ctx)
		}
		if !state.Equal(wantStates[i-1]) {
			t.Fatalf("step %d: matched state %v, want %v", i, state, wantStates[i-1])
		}
		step := d.SmoothedP(seq[i], 2)
		approx(t, "step probability", step, wantSteps[i-1], 1e-9)
		p *= step
	}
	approx(t, "sequence probability", p, 0.1*0.8*0.7*0.2*0.8, 1e-12)
}

// TestPaperToyExampleRecommendations reproduces the Sec. IV.B.2
// recommendation walk: after q0 recommend q0; after [q1, q0] recommend q1.
func TestPaperToyExampleRecommendations(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	q0, q1 := query.ID(0), query.ID(1)

	top := m.Predict(query.Seq{q0}, 1)
	if len(top) != 1 || top[0].Query != q0 {
		t.Fatalf("Predict([q0]) = %v, want q0", top)
	}
	top = m.Predict(query.Seq{q1, q0}, 1)
	if len(top) != 1 || top[0].Query != q1 {
		t.Fatalf("Predict([q1,q0]) = %v, want q1", top)
	}
}

// TestPaperToyExampleRootPrior checks node e of Fig. 3: the prior is the
// marginal query distribution (187 q0 vs 31 q1 occurrences).
func TestPaperToyExampleRootPrior(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	q0, q1 := query.ID(0), query.ID(1)
	if m.Root().Total() != 218 {
		t.Fatalf("root total = %d, want 218", m.Root().Total())
	}
	if m.Root().Count(q0) != 187 || m.Root().Count(q1) != 31 {
		t.Fatalf("root counts = %d/%d, want 187/31", m.Root().Count(q0), m.Root().Count(q1))
	}
}

// TestPaperToyExampleEntropy reproduces the Sec. I.A entropy illustration:
// a (0.6, 0.4) follower split has prediction entropy ~0.29 and a (0.9, 0.1)
// split ~0.14, both in log base 10.
func TestPaperToyExampleEntropy(t *testing.T) {
	d := NewDist()
	d.Add(0, 60)
	d.Add(1, 40)
	approx(t, "entropy(0.6,0.4)", d.Entropy(), 0.29, 0.005)

	d2 := NewDist()
	d2.Add(0, 9)
	d2.Add(1, 1)
	approx(t, "entropy(0.9,0.1)", d2.Entropy(), 0.14, 0.005)
}

// TestToyEpsilonExtremes verifies the Fig. 4 extremes: ε = +Inf keeps only
// length-1 states (the Adjacency degeneration) while ε = 0 grows every
// observed context.
func TestToyEpsilonExtremes(t *testing.T) {
	adj := NewVMM(paperToySessions(), VMMConfig{Epsilon: math.Inf(1), D: 2, Vocab: 2})
	if adj.Depth() != 1 {
		t.Fatalf("ε=+Inf depth = %d, want 1", adj.Depth())
	}
	full := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0, D: 2, Vocab: 2})
	// Candidates with evidence: q0, q1, q1q0, q0q1 — all must be present.
	if full.NumNodes() != 4 {
		t.Fatalf("ε=0 nodes = %d, want 4", full.NumNodes())
	}
}
