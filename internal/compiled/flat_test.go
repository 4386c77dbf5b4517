package compiled

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/query"
	"repro/internal/store"
)

func flatTestModel(t testing.TB, seed int64) (*Model, []query.Session, int, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := 25 + rng.Intn(30)
	sessions := randomCorpus(rng, vocab, 500+rng.Intn(600))
	m := markov.NewMVMMFromEpsilons(sessions, []float64{0.0, 0.02, 0.08}, vocab,
		markov.MVMMOptions{TrainSample: 120, NewtonIters: 5})
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c, sessions, vocab, rng
}

// assertBitIdentical checks two compiled models agree bit-for-bit on
// predictions and probabilities across the given contexts.
func assertBitIdentical(t *testing.T, label string, want, got *Model, ctxs []query.Seq, vocab int, rng *rand.Rand) {
	t.Helper()
	if want.Nodes() != got.Nodes() || want.Followers() != got.Followers() ||
		want.Depth() != got.Depth() || want.Components() != got.Components() || want.Vocab() != got.Vocab() {
		t.Fatalf("%s: shape differs: nodes %d/%d followers %d/%d", label,
			want.Nodes(), got.Nodes(), want.Followers(), got.Followers())
	}
	for _, ctx := range ctxs {
		a, b := want.Predict(ctx, 5), got.Predict(ctx, 5)
		if len(a) != len(b) {
			t.Fatalf("%s: ctx %v: %d vs %d predictions", label, ctx, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ctx %v rank %d: %v vs %v", label, ctx, i, a[i], b[i])
			}
		}
		q := query.ID(rng.Intn(vocab + 2))
		if pa, pb := want.Prob(ctx, q), got.Prob(ctx, q); pa != pb {
			t.Fatalf("%s: ctx %v q=%d: prob %v vs %v", label, ctx, q, pa, pb)
		}
	}
}

// assertForgedDepthRefused: depth sits in the blob header, outside the CRC,
// and sizes the descent path of every pooled scratch — a value no trie of the
// blob's node count can have must be refused, not allocated at the first
// prediction (FuzzLoad's finding: 1<<30 cost 4 GiB).
func assertForgedDepthRefused(t *testing.T, good []byte) {
	t.Helper()
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[24:], 1<<30)
	for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
		if _, err := FromBytes(bad, mode); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("depth 1<<30 (mode %d): err = %v, want ErrCorrupt", mode, err)
		}
	}
}

// TestFlatRoundTrip: the CPS3 encoding must reproduce the model bit-exactly
// through both the zero-copy view and the portable decode-copy path.
func TestFlatRoundTrip(t *testing.T) {
	for seed := int64(31); seed <= 33; seed++ {
		c, sessions, vocab, rng := flatTestModel(t, seed)
		blob := c.AppendFlat(nil)
		if int64(len(blob)) != c.FlatSize() {
			t.Fatalf("FlatSize = %d, blob is %d bytes", c.FlatSize(), len(blob))
		}
		ctxs := parityContexts(rng, sessions, vocab)
		viewed, err := FromBytes(blob, ViewAuto)
		if err != nil {
			t.Fatalf("seed %d: ViewAuto: %v", seed, err)
		}
		assertBitIdentical(t, "view", c, viewed, ctxs, vocab, rng)
		copied, err := FromBytes(blob, ViewCopy)
		if err != nil {
			t.Fatalf("seed %d: ViewCopy: %v", seed, err)
		}
		assertBitIdentical(t, "copy", c, copied, ctxs, vocab, rng)
	}
}

// TestFlatWriteFlatMatchesAppendFlat: the two writers must emit identical
// bytes (core.Save streams through WriteFlat-equivalent framing).
func TestFlatWriteFlatMatchesAppendFlat(t *testing.T) {
	c, _, _, _ := flatTestModel(t, 41)
	var buf bytes.Buffer
	if _, err := c.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), c.AppendFlat(nil)) {
		t.Fatal("WriteFlat and AppendFlat diverge")
	}
}

// TestFlatRejectsCorruption is the format-robustness table test: truncations
// must fail in both view modes, arbitrary byte flips must fail under
// ViewCopy (CRC), and structural corruption that survives ViewAuto's lighter
// validation must never panic when the model is exercised.
func TestFlatRejectsCorruption(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 57)
	good := c.AppendFlat(nil)

	// Truncation at every region boundary and a few arbitrary points.
	for _, n := range []int{0, 3, flatHeaderSize - 1, flatArraysStart - 1, len(good) / 3, len(good) - 1} {
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			if _, err := FromBytes(good[:n], mode); err == nil {
				t.Fatalf("truncation to %d bytes (mode %d) went undetected", n, mode)
			}
		}
	}

	assertForgedDepthRefused(t, good)

	// Every random single-byte flip must be caught by the ViewCopy CRC.
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), good...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		if _, err := FromBytes(bad, ViewCopy); err == nil {
			t.Fatalf("trial %d: corrupted blob passed ViewCopy", trial)
		}
	}

	// ViewAuto skips the CRC by design; corrupted-but-structurally-plausible
	// blobs may load, but exercising them must never panic or index out of
	// range (the structural validation plus descent-time masking guarantee).
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

// FuzzFromBytes drives both decoders with arbitrary bytes: any input must
// either decode or error — never panic.
func FuzzFromBytes(f *testing.F) {
	c, _, _, _ := flatTestModel(f, 71)
	good := c.AppendFlat(nil)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("CPS3 but nonsense"))
	good5, err := c.AppendFlat5(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good5)
	f.Add(good5[:len(good5)/2])
	f.Add([]byte("CPS5 but nonsense"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []ViewMode{ViewAuto, ViewCopy} {
			m, err := FromBytes(data, mode)
			if err != nil {
				continue
			}
			m.Predict(query.Seq{1, 2}, 5)
		}
	})
}

// TestOpenMmap maps a blob stored at an arbitrary (page-aligned) offset
// inside a file, checks bit-identical predictions, and releases the mapping.
func TestOpenMmap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	c, sessions, vocab, rng := flatTestModel(t, 83)
	blob := c.AppendFlat(nil)
	path := filepath.Join(t.TempDir(), "model.cps3")
	const off = 8192
	file := make([]byte, off, off+len(blob))
	file = append(file, blob...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMmap(path, off, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "mmap", c, m, parityContexts(rng, sessions, vocab), vocab, rng)
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(); err != nil { // idempotent
		t.Fatal(err)
	}

	// A window that overruns the file must fail cleanly, not SIGBUS later.
	if _, err := OpenMmap(path, off, int64(len(blob))+4096); err == nil {
		t.Fatal("oversized mmap window went undetected")
	}
}

// TestOpenMmapUnalignedOffset: offsets that are not page-aligned are handled
// by mapping from the enclosing page boundary.
func TestOpenMmapUnalignedOffset(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	c, sessions, vocab, rng := flatTestModel(t, 89)
	blob := c.AppendFlat(nil)
	path := filepath.Join(t.TempDir(), "model.cps3")
	const off = 4096 + 512 // 8-byte aligned, not page-aligned
	file := make([]byte, off, off+len(blob))
	file = append(file, blob...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMmap(path, off, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	assertBitIdentical(t, "mmap-unaligned", c, m, parityContexts(rng, sessions, vocab)[:50], vocab, rng)
}

// TestOpenMmapAdvised: paging hints must apply (or degrade, recorded) while
// leaving predictions bit-identical, and plain OpenMmap must report no
// advice.
func TestOpenMmapAdvised(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	c, sessions, vocab, rng := flatTestModel(t, 97)
	blob := c.AppendFlat(nil)
	path := filepath.Join(t.TempDir(), "model.cps3")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	plain, err := OpenMmap(path, 0, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.MapAdvice(); got != "" {
		t.Fatalf("unadvised mapping reports %q", got)
	}
	plain.Release()

	m, err := OpenMmapAdvised(path, 0, int64(len(blob)), MapAdvice{WillNeed: true, Lock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	advice := m.MapAdvice()
	// Both hints must be accounted for — applied cleanly or recorded with
	// their error — in request order.
	if !strings.HasPrefix(advice, "willneed") || !strings.Contains(advice, "mlock") {
		t.Fatalf("advice = %q, want willneed and mlock accounted for", advice)
	}
	assertBitIdentical(t, "mmap-advised", c, m, parityContexts(rng, sessions, vocab)[:50], vocab, rng)
}
