package compiled

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
)

// randomCorpus generates a seeded synthetic training set with power-law-ish
// query popularity and session lengths 1..6, the shape real query logs have.
func randomCorpus(rng *rand.Rand, vocab, nSessions int) []query.Session {
	zipf := rand.NewZipf(rng, 1.3, 1.5, uint64(vocab-1))
	raw := make(map[string]uint64)
	for s := 0; s < nSessions; s++ {
		l := 1 + rng.Intn(6)
		seq := make(query.Seq, l)
		for i := range seq {
			seq[i] = query.ID(zipf.Uint64())
		}
		raw[seq.Key()] += 1 + uint64(rng.Intn(20))
	}
	sessions := make([]query.Session, 0, len(raw))
	for k, c := range raw {
		sessions = append(sessions, query.Session{Queries: query.SeqFromKey(k), Count: c})
	}
	query.SortSessions(sessions)
	return sessions
}

// parityContexts derives the evaluation contexts: every proper prefix of the
// training sessions (covered paths), random perturbations (partly covered),
// and adversarial shapes — unknown IDs, overlong contexts, empty-ish ones.
func parityContexts(rng *rand.Rand, sessions []query.Session, vocab int) []query.Seq {
	var ctxs []query.Seq
	for _, s := range sessions {
		for l := 1; l <= len(s.Queries); l++ {
			ctxs = append(ctxs, s.Queries[:l])
		}
	}
	for i := 0; i < 200; i++ {
		l := 1 + rng.Intn(8)
		seq := make(query.Seq, l)
		for j := range seq {
			seq[j] = query.ID(rng.Intn(vocab + 3)) // some IDs outside the vocab
		}
		ctxs = append(ctxs, seq)
	}
	long := make(query.Seq, 40)
	for j := range long {
		long[j] = query.ID(rng.Intn(vocab))
	}
	ctxs = append(ctxs, long, nil)
	return ctxs
}

// assertParity checks that the compiled model reproduces the interpreted
// mixture on every context: identical prediction IDs in identical order with
// scores within 1e-12, identical Prob values within 1e-12, identical
// coverage.
func assertParity(t *testing.T, m *markov.MVMM, c *Model, ctxs []query.Seq, vocab int, rng *rand.Rand) {
	t.Helper()
	for _, ctx := range ctxs {
		for _, n := range []int{1, 3, 5, 17} {
			want := m.Predict(ctx, n)
			got := c.Predict(ctx, n)
			if len(want) != len(got) {
				t.Fatalf("ctx %v n=%d: interpreted %d predictions, compiled %d\nwant %v\ngot  %v",
					ctx, n, len(want), len(got), want, got)
			}
			for i := range want {
				if want[i].Query != got[i].Query {
					t.Fatalf("ctx %v n=%d rank %d: interpreted %d, compiled %d\nwant %v\ngot  %v",
						ctx, n, i, want[i].Query, got[i].Query, want, got)
				}
				if diff := math.Abs(want[i].Score - got[i].Score); diff > 1e-12 {
					t.Fatalf("ctx %v n=%d rank %d: score diff %g (interpreted %v, compiled %v)",
						ctx, n, i, diff, want[i].Score, got[i].Score)
				}
			}
		}
		if m.Covers(ctx) != c.Covers(ctx) {
			t.Fatalf("ctx %v: coverage mismatch interpreted=%v compiled=%v", ctx, m.Covers(ctx), c.Covers(ctx))
		}
		for i := 0; i < 5; i++ {
			q := query.ID(rng.Intn(vocab + 2))
			pw, pg := m.Prob(ctx, q), c.Prob(ctx, q)
			if diff := math.Abs(pw - pg); diff > 1e-12 {
				t.Fatalf("ctx %v q=%d: prob diff %g (interpreted %v, compiled %v)", ctx, q, diff, pw, pg)
			}
		}
	}
	assertBatchParity(t, c, ctxs, rng)
}

// assertBatchParity checks that PredictBatch is bit-identical to
// per-context Predict calls, across varying per-context n.
func assertBatchParity(t *testing.T, c *Model, ctxs []query.Seq, rng *rand.Rand) {
	t.Helper()
	ns := make([]int, len(ctxs))
	for i := range ns {
		ns[i] = []int{1, 3, 5, 17}[rng.Intn(4)]
	}
	seen := make([]bool, len(ctxs))
	c.PredictBatch(ctxs, ns, func(i int, preds []model.Prediction) {
		if seen[i] {
			t.Fatalf("batch emitted context %d twice", i)
		}
		seen[i] = true
		want := c.Predict(ctxs[i], ns[i])
		if len(want) != len(preds) {
			t.Fatalf("ctx %v n=%d: batch %d predictions, single %d", ctxs[i], ns[i], len(preds), len(want))
		}
		for j := range want {
			if want[j] != preds[j] { // bit-exact, not approximate
				t.Fatalf("ctx %v n=%d rank %d: batch %v, single %v", ctxs[i], ns[i], j, preds[j], want[j])
			}
		}
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("batch never emitted context %d", i)
		}
	}
}

// TestCompiledParityRandomCorpora is the property test behind the compiled
// model's correctness claim: across seeded random corpora and mixture
// shapes, CompiledModel.Predict/Prob must exactly reproduce the interpreted
// MVMM — same IDs, same order, scores within 1e-12.
func TestCompiledParityRandomCorpora(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 20 + rng.Intn(60)
		sessions := randomCorpus(rng, vocab, 300+rng.Intn(1200))
		m := markov.NewMVMM(sessions, []float64{0.0, 0.01, 0.05, 0.1}, vocab,
			markov.MVMMOptions{TrainSample: 200, NewtonIters: 8})
		c, err := Compile(m)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		assertParity(t, m, c, parityContexts(rng, sessions, vocab), vocab, rng)
	}
}

// TestCompiledParityFixedSigma covers the ablation mixture (uniform Gaussian
// widths instead of the learned Eq. 9 solution).
func TestCompiledParityFixedSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := 25
	sessions := randomCorpus(rng, vocab, 600)
	m := markov.NewMVMM(sessions, []float64{0.0, 0.03, 0.08}, vocab,
		markov.MVMMOptions{FixedSigma: 1.5})
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	assertParity(t, m, c, parityContexts(rng, sessions, vocab), vocab, rng)
}

// TestCompiledNodesCoverUnion: the flat trie must hold at least the
// union-PST node count the paper's Table VII estimates (escape windows can
// only add to it).
func TestCompiledNodesCoverUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sessions := randomCorpus(rng, 30, 700)
	m := markov.NewMVMM(sessions, []float64{0.0, 0.05, 0.1}, 30,
		markov.MVMMOptions{TrainSample: 100, NewtonIters: 5})
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.Nodes() < m.UnionNodes() {
		t.Fatalf("compiled trie has %d nodes, union estimate is %d", c.Nodes(), m.UnionNodes())
	}
}

// TestPredictZeroAllocs verifies the headline property: steady-state
// prediction through AppendPredictions and Prob allocates nothing once the
// scratch pool is warm.
func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	rng := rand.New(rand.NewSource(23))
	vocab := 40
	sessions := randomCorpus(rng, vocab, 1000)
	m := markov.NewMVMM(sessions, []float64{0.0, 0.01, 0.05, 0.1}, vocab,
		markov.MVMMOptions{TrainSample: 100, NewtonIters: 5})
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctxs := parityContexts(rng, sessions, vocab)
	buf := make([]model.Prediction, 0, 32)
	for _, ctx := range ctxs { // warm the pool and grow scratch to steady state
		buf = c.AppendPredictions(buf[:0], ctx, 5)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ctx := ctxs[i%len(ctxs)]
		buf = c.AppendPredictions(buf[:0], ctx, 5)
		if len(ctx) > 0 {
			_ = c.Prob(ctx, ctx[len(ctx)-1])
		}
		i++
	})
	// A GC between runs can momentarily empty the sync.Pool and force one
	// scratch refill; tolerate that but nothing per-call.
	if allocs > 0.05 {
		t.Fatalf("steady-state predict allocates %.2f times per op, want 0", allocs)
	}
}

// TestPredictBatchZeroAllocs: PredictBatch itself must not allocate — all
// per-batch state (descent path, candidate scoring, output buffer) lives in
// the pooled scratch.
func TestPredictBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	rng := rand.New(rand.NewSource(29))
	vocab := 40
	sessions := randomCorpus(rng, vocab, 1000)
	m := markov.NewMVMM(sessions, []float64{0.0, 0.01, 0.05, 0.1}, vocab,
		markov.MVMMOptions{TrainSample: 100, NewtonIters: 5})
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctxs := parityContexts(rng, sessions, vocab)
	if len(ctxs) > 64 {
		ctxs = ctxs[:64]
	}
	ns := make([]int, len(ctxs))
	for i := range ns {
		ns[i] = 5
	}
	sink := 0
	emit := func(i int, preds []model.Prediction) { sink += len(preds) }
	c.PredictBatch(ctxs, ns, emit) // warm the pool to steady state
	allocs := testing.AllocsPerRun(100, func() {
		c.PredictBatch(ctxs, ns, emit)
	})
	if allocs > 0.05 {
		t.Fatalf("steady-state batch predict allocates %.2f times per op, want 0 (sink %d)", allocs, sink)
	}
}
