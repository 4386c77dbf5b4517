package compiled

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
// given view mode.
func mustCompact(t testing.TB, c *Model, mode ViewMode) *Model {
	t.Helper()
	blob, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatalf("AppendFlat5: %v", err)
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
}

// TestFlat5SizeReduction: the compact blob must be dramatically smaller
// than the exact CPS3 blob — the reason it is the default. The benchmark
// model's cps5-over-cps3 <= 0.48 gate lives in `make bench-gates`; the toy
// corpora here, where the fixed headers weigh more, must already clear 0.6.
func TestFlat5SizeReduction(t *testing.T) {
	for _, seed := range []int64{301, 302, 303, 541, 547, 557} {
		c, _, _, _ := flatTestModel(t, seed)
		blob5, err := c.AppendFlat5(nil)
		if err != nil {
			t.Fatal(err)
		}
		cps3, cps5 := len(c.AppendFlat(nil)), len(blob5)
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
	f.Add(truncatedFollowerIDs(good))
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
// allocation-free, as on an exact one: every buffer comes from the pooled
// scratch.
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

// searchChild is child's binary search alone: the oracle the root index is
// held to.
func searchChild(c *Model, v int32, sym uint32) int32 {
	keys := c.childKey[c.childStart[v]:c.childStart[v+1]]
	j := sort.Search(len(keys), func(i int) bool { return keys[i] >= sym })
	if j < len(keys) && keys[j] == sym {
		return c.childStart[v] + int32(j) + 1
	}
	return -1
}

// TestRootIndexAgreesWithSearch: the root index answers every symbol as the
// binary search over the root's children does — each ID in [0, vocab],
// vocab+1 and the largest uint32 — on every kind of model: compiled, CPS3,
// and CPS5 on the heap and mapped.
func TestRootIndexAgreesWithSearch(t *testing.T) {
	c, _, vocab, _ := flatTestModel(t, 613)
	blob5, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*Model{"compiled": c}
	if models["cps3"], err = FromBytes(c.AppendFlat(nil), ViewCopy); err != nil {
		t.Fatal(err)
	}
	if models["cps5 heap"], err = FromBytes(blob5, ViewCopy); err != nil {
		t.Fatal(err)
	}
	if mmapSupported {
		path := filepath.Join(t.TempDir(), "model.cps5")
		if err := os.WriteFile(path, blob5, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMmapAdvised(path, 0, int64(len(blob5)), MapAdvice{})
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Release()
		models["cps5 mmap"] = mapped
	}
	syms := []uint32{uint32(vocab) + 1, math.MaxUint32}
	for sym := uint32(0); sym <= uint32(vocab); sym++ {
		syms = append(syms, sym)
	}
	for name, m := range models {
		if len(m.rootChild) == 0 {
			t.Fatalf("%s: no root index", name)
		}
		for _, sym := range syms {
			if got, want := m.child(0, sym), searchChild(m, 0, sym); got != want {
				t.Fatalf("%s: root child over %d is %d, the search finds %d", name, sym, got, want)
			}
		}
	}
}

// TestFlat5ForgedRootKey: neither the header's vocab (any uint32) nor a root
// key (a varint) sizes the root index. A blob claiming vocab 2^31-1, with
// root keys 2^31-2 and 2^32-2 — an index of 2^31 entries, 8 GiB, if either
// were trusted — and a good blob whose header alone claims that vocab each
// load or are refused, in both view modes, for a small multiple of the
// blob's own length; a model that loads predicts without panicking, the
// forged keys included.
func TestFlat5ForgedRootKey(t *testing.T) {
	c, _, _, _ := flatTestModel(t, 617)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	header := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(header[20:], math.MaxInt32)

	root := c.childKey[c.childStart[0]:c.childStart[1]]
	if len(root) < 3 {
		t.Fatalf("the root has %d children, want 3 or more", len(root))
	}
	c.vocab = math.MaxInt32
	root[len(root)-2], root[len(root)-1] = math.MaxInt32-1, math.MaxUint32-1
	keys, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := []query.Seq{{math.MaxInt32 - 1}, {math.MaxUint32 - 1}, {query.ID(root[0])}, {1, query.ID(root[0])}}
	for name, blob := range map[string][]byte{"header vocab": header, "root keys": keys} {
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := FromBytes(blob, mode)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(blob)) {
				t.Fatalf("%s (mode %d): load allocated %d bytes for a %d-byte blob", name, mode, got, len(blob))
			}
			if err != nil {
				continue
			}
			for _, ctx := range ctxs {
				m.Predict(ctx, 5)
				m.Prob(ctx, ctx[0])
			}
		}
	}
}

// truncatedFollowerIDs returns good with every byte of its follower-ID
// region a varint continuation byte, so each node's group ends mid-varint.
// The CRC no longer matches; a zero-copy load does not check it.
func truncatedFollowerIDs(good []byte) []byte {
	bad := append([]byte(nil), good...)
	le := binary.LittleEndian
	off := le.Uint64(bad[flatHeaderSize+16*f5FolIDV:])
	n := le.Uint64(bad[flatHeaderSize+16*f5FolIDV+8:])
	for i := off; i < off+n; i++ {
		bad[i] = 0x80
	}
	return bad
}

// TestFlat5TruncatedFollowerIDs: a follower-ID stream that ends mid-varint
// reaches the load-time decoder of a zero-copy load, which pads each node
// with its running ID; the model misranks but predicts without panicking.
func TestFlat5TruncatedFollowerIDs(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 619)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := truncatedFollowerIDs(good)
	if _, err := FromBytes(bad, ViewCopy); err == nil {
		t.Fatal("a truncated follower-ID stream passed the ViewCopy CRC")
	}
	m, err := FromBytes(bad, ViewAuto)
	if err != nil {
		t.Fatal(err)
	}
	if m.Followers() != c.Followers() {
		t.Fatalf("decoded %d followers, the blob holds %d", m.Followers(), c.Followers())
	}
	for _, ctx := range parityContexts(rng, sessions, vocab) {
		m.Predict(ctx, 5)
		if len(ctx) > 0 {
			m.Prob(ctx, ctx[0])
		}
	}
}
