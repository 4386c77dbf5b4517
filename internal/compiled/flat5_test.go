package compiled

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/store"
)

// quantTol is the asserted ceiling on quantisation error. The format bound
// is qstep/2 ≤ 1/(2·65535) ≈ 7.7e-6 per node, and mixture weights and
// escape chains multiply to ≤ 1, so scores and probabilities stay within
// it; the ceiling leaves slack for float32 step rounding.
const quantTol = 2e-5

// mustCompact round-trips an exact model through the CPS5 encoding in the
// given view mode, checking the size accounting on the way.
func mustCompact(t testing.TB, c *Model, mode ViewMode) *Model {
	t.Helper()
	blob, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatalf("AppendFlat5: %v", err)
	}
	if int64(len(blob)) != c.Flat5Size() {
		t.Fatalf("Flat5Size = %d, blob is %d bytes", c.Flat5Size(), len(blob))
	}
	m, err := FromBytes(blob, mode)
	if err != nil {
		t.Fatalf("FromBytes(CPS5): %v", err)
	}
	if !m.Quantised() {
		t.Fatal("CPS5 load did not produce a quantised model")
	}
	return m
}

// assertQuantParity checks the quantised model against the exact one under
// the CPS5 error contract: probabilities within quantTol, prediction lists
// of identical length whose rank disagreements only involve candidates
// whose exact scores are within 2·quantTol of each other (near-ties), and
// identical coverage.
func assertQuantParity(t *testing.T, exact, quant *Model, ctxs []query.Seq, vocab int, rng *rand.Rand) {
	t.Helper()
	for _, ctx := range ctxs {
		for _, n := range []int{1, 5, 10} {
			want := exact.Predict(ctx, n)
			got := quant.Predict(ctx, n)
			if len(want) != len(got) {
				t.Fatalf("ctx %v n=%d: exact %d predictions, quantised %d", ctx, n, len(want), len(got))
			}
			for i := range want {
				if got[i].Query != want[i].Query {
					pw := exact.Prob(ctx, want[i].Query)
					pg := exact.Prob(ctx, got[i].Query)
					if diff := math.Abs(pw - pg); diff > 2*quantTol {
						t.Fatalf("ctx %v n=%d rank %d: quantised ranked %d over %d but exact scores differ by %g (not a near-tie)",
							ctx, n, i, got[i].Query, want[i].Query, diff)
					}
				}
				if diff := math.Abs(got[i].Score - exact.Prob(ctx, got[i].Query)); diff > quantTol {
					t.Fatalf("ctx %v n=%d rank %d: quantised score off by %g (> %g)", ctx, n, i, diff, quantTol)
				}
			}
		}
		if exact.Covers(ctx) != quant.Covers(ctx) {
			t.Fatalf("ctx %v: coverage mismatch exact=%v quantised=%v", ctx, exact.Covers(ctx), quant.Covers(ctx))
		}
		for i := 0; i < 5; i++ {
			q := query.ID(rng.Intn(vocab + 2))
			pw, pg := exact.Prob(ctx, q), quant.Prob(ctx, q)
			if diff := math.Abs(pw - pg); diff > quantTol {
				t.Fatalf("ctx %v q=%d: prob diff %g (exact %v, quantised %v)", ctx, q, diff, pw, pg)
			}
		}
	}
}

// TestQuantParityRandomCorpora is the CPS5 correctness property: across
// seeded random corpora, the quantised model must stay within the bounded
// error contract of the float64 path — top-10 rank agreement modulo
// near-ties, probabilities within quantTol.
func TestQuantParityRandomCorpora(t *testing.T) {
	for seed := int64(101); seed <= 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 20 + rng.Intn(60)
		sessions := randomCorpus(rng, vocab, 300+rng.Intn(1200))
		m := markov.NewMVMMFromEpsilons(sessions, []float64{0.0, 0.01, 0.05, 0.1}, vocab,
			markov.MVMMOptions{TrainSample: 200, NewtonIters: 8})
		c, err := Compile(m)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ctxs := parityContexts(rng, sessions, vocab)
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			assertQuantParity(t, c, mustCompact(t, c, mode), ctxs, vocab, rng)
		}
	}
}

// TestFlat5ParityVsExact pins the end-to-end error contract against the
// float64 model on the flat-format test corpora, through both view modes:
// probabilities within quantTol, rank inversions only at near-ties.
func TestFlat5ParityVsExact(t *testing.T) {
	for _, seed := range []int64{501, 502, 503, 504, 511, 512, 513} {
		c, sessions, vocab, rng := flatTestModel(t, seed)
		ctxs := parityContexts(rng, sessions, vocab)
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			assertQuantParity(t, c, mustCompact(t, c, mode), ctxs, vocab, rng)
		}
	}
}

// TestQuantWideWidths exercises the wide variants of the narrow arrays: a
// mixture with more than 16 components keeps uint64 evidence masks, and
// session counts above 2^32 keep uint64 occurrence arrays.
func TestQuantWideWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	vocab := 25
	sessions := randomCorpus(rng, vocab, 400)
	eps := make([]float64, 18)
	for i := range eps {
		eps[i] = float64(i) * 0.005
	}
	m := markov.NewMVMMFromEpsilons(sessions, eps, vocab,
		markov.MVMMOptions{TrainSample: 100, NewtonIters: 4})
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if evW, _ := c.quantWidths(); evW != 8 {
		t.Fatalf("evidence width %d for %d components, want 8", evW, c.Components())
	}
	q := mustCompact(t, c, ViewCopy)
	assertQuantParity(t, c, q, parityContexts(rng, sessions, vocab)[:80], vocab, rng)

	// Huge session counts force 8-byte occurrence arrays.
	big := []query.Session{
		{Queries: query.Seq{1, 2}, Count: 1 << 33},
		{Queries: query.Seq{1, 3}, Count: 7},
		{Queries: query.Seq{2, 3, 4}, Count: 1 << 34},
	}
	mb := markov.NewMVMMFromEpsilons(big, []float64{0.0, 0.05}, 6, markov.MVMMOptions{NewtonIters: 3})
	cb, err := Compile(mb)
	if err != nil {
		t.Fatal(err)
	}
	if _, occW := cb.quantWidths(); occW != 8 {
		t.Fatalf("occurrence width %d for 2^34 counts, want 8", occW)
	}
	qb := mustCompact(t, cb, ViewCopy)
	assertQuantParity(t, cb, qb, []query.Seq{{1}, {2}, {1, 2}, {3, 2, 1}, {4, 5}}, 6, rng)
}

// TestAppendFlat5Unquantisable: a node with more followers than a 16-bit
// rank index can address must fail with ErrUnquantisable and leave dst
// untouched (len 0 here) — core.Save keys its CPS3 fallback on that.
func TestAppendFlat5Unquantisable(t *testing.T) {
	const support = quantSteps + 1
	c := &Model{
		k: 1, vocab: support + 10, depth: 1, nodes: 2,
		sigma: []float64{1}, maxLen: []int{0},
		childStart: []int32{0, 1, 1}, childKey: []uint32{1},
		evidence: []uint64{0, 1}, occ: []uint64{0, 0}, startOcc: []uint64{0, 0},
		floor:    []float64{0, 1e-6},
		folStart: []int32{0, 0, support},
	}
	c.folIDSorted = make([]uint32, support)
	c.folIDRanked = make([]uint32, support)
	c.folPSorted = make([]float64, support)
	c.folCount = make([]uint64, support)
	for i := range c.folIDSorted {
		c.folIDSorted[i] = uint32(i)
		c.folIDRanked[i] = uint32(i)
		c.folPSorted[i] = 1.0 / support
		c.folCount[i] = 1
	}
	blob, err := c.AppendFlat5(nil)
	if !errors.Is(err, ErrUnquantisable) {
		t.Fatalf("err = %v, want ErrUnquantisable", err)
	}
	if len(blob) != 0 {
		t.Fatalf("failed AppendFlat5 returned %d bytes, want the untouched dst", len(blob))
	}
}

// TestQuantisedCannotWriteExactForms: the exact CPS3 encoder must refuse a
// quantised model loudly (its raw counts are gone) instead of writing
// garbage.
func TestQuantisedCannotWriteExactForms(t *testing.T) {
	c, _, _, _ := flatTestModel(t, 419)
	q := mustCompact(t, c, ViewCopy)
	defer func() {
		if recover() == nil {
			t.Fatal("AppendFlat on a quantised model did not panic")
		}
	}()
	q.AppendFlat(nil)
}

// TestFlat5RoundTripStable: view and copy loads behave identically, and a
// CPS5-loaded model re-encodes to the byte-identical blob (nothing drifts
// across save/load generations).
func TestFlat5RoundTripStable(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 531)
	blob, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := FromBytes(blob, ViewAuto)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := FromBytes(blob, ViewCopy)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := parityContexts(rng, sessions, vocab)
	assertBitIdentical(t, "view-vs-copy", copied, viewed, ctxs, vocab, rng)

	for label, m := range map[string]*Model{"viewed": viewed, "copied": copied} {
		again, err := m.AppendFlat5(nil)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", label, err)
		}
		if !bytes.Equal(blob, again) {
			t.Fatalf("%s: CPS5 re-encode is not byte-identical (%d vs %d bytes)", label, len(blob), len(again))
		}
	}

	// WriteFlat5 must emit the same bytes as AppendFlat5.
	var buf bytes.Buffer
	n, err := c.WriteFlat5(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(blob)) || !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("WriteFlat5 wrote %d bytes, AppendFlat5 %d; equal=%v", n, len(blob), bytes.Equal(buf.Bytes(), blob))
	}
}

// TestFlat5SizeReduction: the compact blob must be dramatically smaller
// than the exact CPS3 blob — the reason it is the default. The benchmark
// model's cps5-over-cps3 <= 0.48 gate lives in `make bench-gates`; the toy
// corpora here, where the fixed headers weigh more, must already clear 0.6.
func TestFlat5SizeReduction(t *testing.T) {
	for _, seed := range []int64{301, 302, 303, 541, 547, 557} {
		c, _, _, _ := flatTestModel(t, seed)
		cps3, cps5 := c.FlatSize(), c.Flat5Size()
		ratio := float64(cps5) / float64(cps3)
		if ratio > 0.6 {
			t.Fatalf("seed %d: CPS5 %d bytes is %.1f%% of CPS3 %d bytes, want <= 60%%", seed, cps5, 100*ratio, cps3)
		}
		t.Logf("seed %d: cps5/cps3 = %.3f (%d / %d bytes)", seed, ratio, cps5, cps3)
	}
}

// TestFlat5BatchParity: PredictBatch over a CPS5 model — sequential and
// parallel at several worker counts — must match per-context Predict calls
// bit for bit, with exactly one emit per index.
func TestFlat5BatchParity(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 577)
	q5 := mustCompact(t, c, ViewAuto)
	ctxs := parityContexts(rng, sessions, vocab)
	assertBatchParity(t, q5, ctxs, rng)

	ns := make([]int, len(ctxs))
	for i := range ns {
		ns[i] = 1 + rng.Intn(8)
	}
	want := make([][]model.Prediction, len(ctxs))
	for i := range ctxs {
		want[i] = q5.Predict(ctxs[i], ns[i])
	}
	for _, workers := range []int{0, 2, 3, 8} {
		emitted := make([]int, len(ctxs))
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		q5.PredictBatchParallel(ctxs, ns, workers, func(i int, preds []model.Prediction) {
			<-mu
			emitted[i]++
			if len(preds) != len(want[i]) {
				t.Errorf("workers=%d ctx %d: %d predictions, want %d", workers, i, len(preds), len(want[i]))
			} else {
				for j := range preds {
					if preds[j] != want[i][j] {
						t.Errorf("workers=%d ctx %d rank %d: %v, want %v", workers, i, j, preds[j], want[i][j])
						break
					}
				}
			}
			mu <- struct{}{}
		})
		for i, n := range emitted {
			if n != 1 {
				t.Fatalf("workers=%d: ctx %d emitted %d times", workers, i, n)
			}
		}
	}
}

// TestFlat5RejectsCorruption mirrors the CPS3 robustness table: truncations
// fail in both view modes, every byte flip fails the ViewCopy CRC, flips
// that survive ViewAuto's structural validation must never panic when the
// model is exercised (defensive clamping in pooling and descent), and — in
// the header, outside the CRC — a probability width other than 2 (the byte a
// coarser tier once used) or a depth the trie cannot have is corrupt.
func TestFlat5RejectsCorruption(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 587)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{0, 3, flatHeaderSize - 1, compactArraysStart - 1, len(good) / 3, len(good) - 1} {
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			if _, err := FromBytes(good[:n], mode); err == nil {
				t.Fatalf("truncation to %d bytes (mode %d) went undetected", n, mode)
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), good...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		if _, err := FromBytes(bad, ViewCopy); err == nil {
			t.Fatalf("trial %d: corrupted blob passed ViewCopy", trial)
		}
	}

	for _, w := range []byte{0, 1, 4} {
		bad := append([]byte(nil), good...)
		bad[54] = w
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			if _, err := FromBytes(bad, mode); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("probability width %d (mode %d): err = %v, want ErrCorrupt", w, mode, err)
			}
		}
	}
	assertForgedDepthRefused(t, good)

	ctxs := parityContexts(rng, sessions, vocab)
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), good...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		m, err := FromBytes(bad, ViewAuto)
		if err != nil {
			continue
		}
		for _, ctx := range ctxs[:10] {
			m.Predict(ctx, 5)
			if len(ctx) > 0 {
				m.Prob(ctx, ctx[len(ctx)-1])
			}
		}
	}
}

// FuzzFlat5Decode: arbitrary bytes through the CPS5 decoder must error or
// serve, never panic — in both view modes (the varint regions are the new
// attack surface; truncated or over-long encodings must be caught).
func FuzzFlat5Decode(f *testing.F) {
	c, _, _, _ := flatTestModel(f, 593)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:compactArraysStart+7])
	f.Add([]byte("CPS5 but nonsense"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			m, err := FromBytes(data, mode)
			if err != nil {
				continue
			}
			m.Predict(query.Seq{1, 2}, 5)
			m.Prob(query.Seq{2}, 1)
		}
	})
}

// TestFlat5ZeroAllocs: steady-state prediction on a CPS5 model must remain
// allocation-free — the lazy follower-ID decode reuses the pooled scratch
// arena.
func TestFlat5ZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	c, sessions, vocab, rng := flatTestModel(t, 599)
	q5 := mustCompact(t, c, ViewAuto)
	ctxs := parityContexts(rng, sessions, vocab)
	buf := make([]model.Prediction, 0, 32)
	for _, ctx := range ctxs {
		buf = q5.AppendPredictions(buf[:0], ctx, 5)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ctx := ctxs[i%len(ctxs)]
		buf = q5.AppendPredictions(buf[:0], ctx, 5)
		if len(ctx) > 0 {
			_ = q5.Prob(ctx, ctx[len(ctx)-1])
		}
		i++
	})
	if allocs > 0.05 {
		t.Fatalf("steady-state CPS5 predict allocates %.2f times per op, want 0", allocs)
	}
}
