package compiled

import (
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
	m := markov.NewMVMM(sessions, []float64{0.0, 0.02, 0.08}, vocab,
		markov.MVMMOptions{TrainSample: 120, NewtonIters: 5})
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c, sessions, vocab, rng
}

// mustFlat5 is c's CPS5 blob.
func mustFlat5(t testing.TB, c *Model) []byte {
	t.Helper()
	blob, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatalf("AppendFlat5: %v", err)
	}
	return blob
}

// mmapAt writes blob at byte offset off of a new file and maps it back; it
// returns the model and the file's path.
func mmapAt(t *testing.T, blob []byte, off int, adv MapAdvice) (*Model, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.cps5")
	file := make([]byte, off, off+len(blob))
	if err := os.WriteFile(path, append(file, blob...), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMmapAdvised(path, int64(off), int64(len(blob)), adv)
	if err != nil {
		t.Fatal(err)
	}
	return m, path
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

// TestOpenMmap maps a CPS5 blob stored at an arbitrary (page-aligned)
// offset inside a file, checks predictions bit-identical to a heap decode of
// the same blob, and releases the mapping.
func TestOpenMmap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	c, sessions, vocab, rng := flatTestModel(t, 83)
	blob := mustFlat5(t, c)
	const off = 8192
	m, path := mmapAt(t, blob, off, MapAdvice{})
	assertBitIdentical(t, "mmap", mustCompact(t, c, ViewCopy), m, parityContexts(rng, sessions, vocab), vocab, rng)
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(); err != nil { // idempotent
		t.Fatal(err)
	}

	// A window that overruns the file must fail cleanly, not SIGBUS later.
	if _, err := OpenMmapAdvised(path, off, int64(len(blob))+4096, MapAdvice{}); err == nil {
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
	m, _ := mmapAt(t, mustFlat5(t, c), 4096+512, MapAdvice{}) // 8-byte aligned, not page-aligned
	defer m.Release()
	assertBitIdentical(t, "mmap-unaligned", mustCompact(t, c, ViewCopy), m, parityContexts(rng, sessions, vocab)[:50], vocab, rng)
}

// TestOpenMmapAdvised: paging hints must apply (or degrade, recorded) while
// leaving predictions bit-identical, and a mapping opened without hints must
// report no advice.
func TestOpenMmapAdvised(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	c, sessions, vocab, rng := flatTestModel(t, 97)
	blob := mustFlat5(t, c)

	plain, _ := mmapAt(t, blob, 0, MapAdvice{})
	if got := plain.MapAdvice(); got != "" {
		t.Fatalf("unadvised mapping reports %q", got)
	}
	plain.Release()

	m, _ := mmapAt(t, blob, 0, MapAdvice{WillNeed: true, Lock: true})
	defer m.Release()
	advice := m.MapAdvice()
	// Both hints must be accounted for — applied cleanly or recorded with
	// their error — in request order.
	if !strings.HasPrefix(advice, "willneed") || !strings.Contains(advice, "mlock") {
		t.Fatalf("advice = %q, want willneed and mlock accounted for", advice)
	}
	assertBitIdentical(t, "mmap-advised", mustCompact(t, c, ViewCopy), m, parityContexts(rng, sessions, vocab)[:50], vocab, rng)
}
