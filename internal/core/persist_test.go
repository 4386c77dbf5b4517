package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiled"
	"repro/internal/query"
)

// persistContexts are the contexts the persistence tests compare answers on.
var persistContexts = [][]string{
	{"nokia n73"}, {"kidney stones"},
	{"nokia n73", "nokia n73 themes"}, {"unknown", "nokia n73"},
}

// quantScoreTol is the asserted ceiling on a CPS5-loaded engine's score
// drift: the format bounds the absolute probability error by the per-node
// quantisation step (≤ 1/65535), and mixture weights multiply to ≤ 1.
const quantScoreTol = 2e-5

// assertRecommendations compares two recommenders on ctxs: identical
// suggestions in identical order, with scores bit-identical when tol is 0
// and within tol otherwise (the small test model's scores are well
// separated, so a bounded error cannot reorder them).
func assertRecommendations(t *testing.T, label string, want, got Recommender, ctxs [][]string, tol float64) {
	t.Helper()
	for _, ctx := range ctxs {
		x, y := Recommend(want, ctx, 5), Recommend(got, ctx, 5)
		if len(x) != len(y) {
			t.Fatalf("%s: ctx %v: %d vs %d suggestions", label, ctx, len(x), len(y))
		}
		for i := range x {
			if x[i].Query != y[i].Query {
				t.Fatalf("%s: ctx %v rank %d: %q vs %q", label, ctx, i, x[i].Query, y[i].Query)
			}
			if tol == 0 && math.Float64bits(x[i].Score) != math.Float64bits(y[i].Score) {
				t.Fatalf("%s: ctx %v rank %d: score %v vs %v, want the same bits", label, ctx, i, x[i].Score, y[i].Score)
			}
			if diff := math.Abs(x[i].Score - y[i].Score); diff > tol {
				t.Fatalf("%s: ctx %v rank %d: score drift %g > %g", label, ctx, i, diff, tol)
			}
		}
	}
}

func trainSmall(t testing.TB) *Engine {
	t.Helper()
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func saveBytes(t testing.TB, rec *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantMmapMode is the LoadInfo.Mode LoadPath reports on this platform.
func wantMmapMode() string {
	if _, err := compiled.OpenMmap("", 0, 0); errors.Is(err, compiled.ErrMmapUnsupported) {
		return LoadModeHeap
	}
	return LoadModeMmap
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rec := trainSmall(t)
	loaded, err := Load(bytes.NewReader(saveBytes(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	assertRecommendations(t, "round trip", rec, loaded, persistContexts, quantScoreTol)
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("this is not a model file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestSaveWritesV5AndLoadRestores: Save writes the one container with the
// compact CPS5 blob, the reader-based Load restores it within the bounded
// error contract and without a mixture, and the loaded engine re-saves the
// file byte for byte (it re-emits the blob it serves).
func TestSaveWritesV5AndLoadRestores(t *testing.T) {
	rec := trainSmall(t)
	file := saveBytes(t, rec)
	if got := string(file[:len(saveMagic)]); got != saveMagic {
		t.Fatalf("header = %q, want %q", got, saveMagic)
	}
	loaded, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if cm := loaded.CompiledModel(); cm == nil || !cm.Quantised() {
		t.Fatalf("load did not restore a quantised compiled model (%v)", cm)
	}
	if li := loaded.LoadInfo(); li.Mode != LoadModeHeap || li.Version != saveMagic ||
		li.Format != "CPS5" || li.BlobBytes != rec.CompiledModel().Flat5Size() {
		t.Fatalf("LoadInfo = %+v", li)
	}
	if rec.Model() == nil || loaded.Model() != nil {
		t.Fatalf("Model(): trained %v, loaded %v; want the mixture in process and none from a file", rec.Model(), loaded.Model())
	}
	assertRecommendations(t, "stream", rec, loaded, persistContexts, quantScoreTol)
	if !bytes.Equal(saveBytes(t, loaded), file) {
		t.Fatal("re-saving a loaded engine changed the file")
	}
}

// TestLoadPathMmapV5: LoadPath on a saved file must take the mmap route,
// report the CPS5 blob it mapped and serve what the heap load serves.
func TestLoadPathMmapV5(t *testing.T) {
	rec := trainSmall(t)
	file := saveBytes(t, rec)
	loaded, err := LoadPath(writeTemp(t, file))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	li := loaded.LoadInfo()
	if li.Mode != wantMmapMode() || li.Version != saveMagic || li.Format != "CPS5" ||
		li.BlobBytes != rec.CompiledModel().Flat5Size() || li.Duration <= 0 {
		t.Fatalf("LoadInfo = %+v, want mode %q format CPS5", li, wantMmapMode())
	}
	if cm := loaded.CompiledModel(); cm == nil || !cm.Quantised() {
		t.Fatal("LoadPath did not produce a quantised compiled model")
	}
	assertRecommendations(t, "mmap", rec, loaded, persistContexts, quantScoreTol)
	heap, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	assertRecommendations(t, "mmap-vs-heap", heap, loaded, persistContexts, 0)
	if !bytes.Equal(saveBytes(t, loaded), file) {
		t.Fatal("re-saving a mapped engine changed the file")
	}
}

var (
	wideOnce sync.Once
	wideRec  *Engine
)

// wideFollowers is how many distinct queries follow wideContext in
// wideEngine's log: one more than a CPS5 rank index can address.
const (
	wideFollowers = 1 << 16
	wideContext   = "hub"
)

// wideEngine trains an engine CPS5 cannot hold: one context followed by
// 65,536 distinct queries.
func wideEngine(t *testing.T) *Engine {
	t.Helper()
	wideOnce.Do(func() {
		d := query.NewDict()
		hub := d.Intern(wideContext)
		sessions := make([]query.Seq, 0, wideFollowers+1)
		for i := 0; i < wideFollowers; i++ {
			sessions = append(sessions, query.Seq{hub, d.Intern(fmt.Sprintf("spoke %05d", i))})
		}
		// One follower seen twice, so the top of the ranking is not one big tie.
		sessions = append(sessions, sessions[7])
		cfg := smallConfig()
		cfg.ReductionThreshold = -1
		wideRec = TrainFromSessions(d, sessions, cfg)
	})
	if wideRec.CompiledModel() == nil {
		t.Fatal("the wide model did not compile")
	}
	return wideRec
}

var wideContexts = [][]string{{wideContext}, {"spoke 00007", wideContext}, {"spoke 00003"}}

// TestSaveFallsBackToCPS3 is why the exact encoding is kept: a model whose
// statistics CPS5 refuses is saved with a CPS3 blob in the same container,
// and a stream Load serves it bit-identically to the engine that wrote it.
func TestSaveFallsBackToCPS3(t *testing.T) {
	rec := wideEngine(t)
	if _, err := rec.CompiledModel().AppendFlat5(nil); err == nil {
		t.Fatal("the wide model fits CPS5: the fallback is not under test")
	}
	file := saveBytes(t, rec)
	loaded, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if li := loaded.LoadInfo(); li.Mode != LoadModeHeap || li.Version != saveMagic ||
		li.Format != "CPS3" || li.BlobBytes != rec.CompiledModel().FlatSize() {
		t.Fatalf("LoadInfo = %+v, want a CPS3 blob of %d bytes", li, rec.CompiledModel().FlatSize())
	}
	if loaded.CompiledModel().Quantised() {
		t.Fatal("CPS3 load is quantised")
	}
	assertRecommendations(t, "stream", rec, loaded, wideContexts, 0)
	if !bytes.Equal(saveBytes(t, loaded), file) {
		t.Fatal("re-saving a CPS3-loaded engine changed the file")
	}
}

// TestLoadPathMmap: LoadPath maps an exact CPS3 blob as it maps a compact
// one, and serves the same bits as the engine that wrote the file.
func TestLoadPathMmap(t *testing.T) {
	rec := wideEngine(t)
	loaded, err := LoadPath(writeTemp(t, saveBytes(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if li := loaded.LoadInfo(); li.Mode != wantMmapMode() || li.Version != saveMagic || li.Format != "CPS3" ||
		li.BlobBytes != rec.CompiledModel().FlatSize() || li.MapAdvice != "" || li.Duration <= 0 {
		t.Fatalf("LoadInfo = %+v, want mode %q format CPS3", li, wantMmapMode())
	}
	assertRecommendations(t, "mmap", rec, loaded, wideContexts, 0)
}

// TestSaveNeedsCompiledModel: an engine that fell back to the interpreted
// mixture has nothing a server could load, so Save refuses and writes nothing.
func TestSaveNeedsCompiledModel(t *testing.T) {
	rec := trainSmall(t)
	interp := &Engine{dict: rec.dict, strs: rec.strs, mix: rec.mix}
	var buf bytes.Buffer
	if err := interp.Save(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("Save without a compiled model: err = %v, %d bytes written", err, buf.Len())
	}
}

// TestLoadRefusesOldMagics: the containers of earlier revisions are not
// read any more; each is refused, by both loaders, with an error that names
// the magic it found.
func TestLoadRefusesOldMagics(t *testing.T) {
	file := saveBytes(t, trainSmall(t))
	for _, old := range []string{"QRECV001", "QRECV002", "QRECV003", "QRECV004", "QRECV005"} {
		bad := append([]byte(old), file[len(saveMagic):]...)
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), old) {
			t.Fatalf("Load of a %s file: err = %v, want a refusal naming it", old, err)
		}
		if _, err := LoadAnyPath(writeTemp(t, bad), LoadOptions{}); err == nil || !strings.Contains(err.Error(), old) {
			t.Fatalf("LoadAnyPath of a %s file: err = %v, want a refusal naming it", old, err)
		}
	}
}

// fileLayout locates the length words of a saved file.
type fileLayout struct{ dictLenOff, padLenOff, blobLenOff, blobOff int }

func layoutOf(t testing.TB, file []byte) fileLayout {
	t.Helper()
	le := binary.LittleEndian
	l := fileLayout{dictLenOff: len(saveMagic)}
	l.padLenOff = l.dictLenOff + 8 + int(le.Uint64(file[l.dictLenOff:]))
	l.blobLenOff = l.padLenOff + 8 + int(le.Uint64(file[l.padLenOff:]))
	l.blobOff = l.blobLenOff + 8
	if l.blobOff%compiledAlign != 0 || l.blobOff+int(le.Uint64(file[l.blobLenOff:])) != len(file) {
		t.Fatalf("unexpected file layout %+v for %d bytes", l, len(file))
	}
	return l
}

// forge returns file cut to n bytes with the length word at off set to v.
func forge(file []byte, n, off int, v uint64) []byte {
	bad := append([]byte(nil), file[:n]...)
	binary.LittleEndian.PutUint64(bad[off:], v)
	return bad
}

// allocatedBy reports the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadRejectsForgedLengths: a length word is the file's claim, not a
// size to allocate. A short stream whose blob or dictionary length is forged
// to 16 GiB or 512 GiB — the parent died of `fatal error: out of memory` on
// the first — is an error that cost about what the stream holds, from both
// loaders; so is a forged pad.
func TestLoadRejectsForgedLengths(t *testing.T) {
	file := saveBytes(t, trainSmall(t))
	l := layoutOf(t, file)
	cut := l.blobOff + 100
	cases := map[string][]byte{
		"pad 8":          forge(file, len(file), l.padLenOff, 8),
		"pad one page":   forge(file, len(file), l.padLenOff, compiledAlign),
		"blob 0":         forge(file, len(file), l.blobLenOff, 0),
		"blob +1":        forge(file, len(file), l.blobLenOff, uint64(len(file)-l.blobOff+1)),
		"blob 1<<63":     forge(file, cut, l.blobLenOff, 1<<63),
		"dict 1<<40 + 1": forge(file, cut, l.dictLenOff, 1<<40+1),
	}
	for _, n := range []uint64{1 << 34, 1 << 39} {
		cases[fmt.Sprintf("blob %d", n)] = forge(file, cut, l.blobLenOff, n)
		cases[fmt.Sprintf("dict %d", n)] = forge(file, cut, l.dictLenOff, n)
	}
	for name, bad := range cases {
		path := writeTemp(t, bad)
		for loader, load := range map[string]func() error{
			"Load":     func() error { _, err := Load(bytes.NewReader(bad)); return err },
			"LoadPath": func() error { _, err := LoadPath(path); return err },
		} {
			var err error
			if got := allocatedBy(func() { err = load() }); got > 4<<20 {
				t.Errorf("%s, %s: allocated %d bytes over a %d-byte file", name, loader, got, len(bad))
			}
			if err == nil {
				t.Errorf("%s, %s: accepted", name, loader)
			}
		}
	}
}

// TestLoadRejectsTruncatedFlat: cutting a model file anywhere in the compiled
// blob must fail loudly on both load paths, never panic or SIGBUS.
func TestLoadRejectsTruncatedFlat(t *testing.T) {
	good := saveBytes(t, trainSmall(t))
	for _, n := range []int{len(good) - 1, len(good) - 4097, len(good) - len(good)/4} {
		if n <= len(saveMagic) {
			continue
		}
		if _, err := Load(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("stream load of %d/%d bytes went undetected", n, len(good))
		}
		if _, err := LoadPath(writeTemp(t, good[:n])); err == nil {
			t.Fatalf("path load of %d/%d bytes went undetected", n, len(good))
		}
	}
}

// TestLoadPathWithMapAdvice: paging hints requested through LoadOptions must
// surface in LoadInfo (applied or recorded-degraded) on the mmap route, and
// plain LoadPath must report none.
func TestLoadPathWithMapAdvice(t *testing.T) {
	rec := trainSmall(t)
	path := writeTemp(t, saveBytes(t, rec))

	plain, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.LoadInfo().MapAdvice; got != "" {
		t.Fatalf("plain LoadPath reports advice %q", got)
	}
	plain.Close()

	loaded, err := LoadPathWith(path, LoadOptions{MapWillNeed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	li := loaded.LoadInfo()
	if li.Mode != LoadModeMmap {
		t.Skipf("no mmap on this platform (mode %s)", li.Mode)
	}
	if !strings.HasPrefix(li.MapAdvice, "willneed") {
		t.Fatalf("LoadInfo.MapAdvice = %q, want willneed accounted for", li.MapAdvice)
	}
	assertRecommendations(t, "advised", rec, loaded, persistContexts, quantScoreTol)
}

// FuzzLoad feeds arbitrary container bytes to Load: it must never panic,
// never allocate by a length word, and whatever it accepts must answer as
// the engine that wrote the seed file does — from LoadPath too, which shares
// the header parser. (The only bytes of a file no checksum covers are the
// pad and the blob's fixed header, and nothing served is read from either.)
func FuzzLoad(f *testing.F) {
	rec := trainSmall(f)
	file := saveBytes(f, rec)
	want, err := Load(bytes.NewReader(file))
	if err != nil {
		f.Fatal(err)
	}
	l := layoutOf(f, file)
	f.Add(file)
	// One truncation inside each part of the layout.
	for _, n := range []int{3, l.dictLenOff + 4, l.dictLenOff + 20, l.padLenOff + 4, l.padLenOff + 100,
		l.blobLenOff + 4, l.blobOff + 10, len(file) - 1} {
		f.Add(file[:n])
	}
	cut := l.blobOff + 100
	f.Add(forge(file, cut, l.dictLenOff, 1<<34))
	f.Add(forge(file, cut, l.blobLenOff, 1<<34))
	f.Add(forge(file, cut, l.blobLenOff, 1<<39))
	f.Add(forge(file, len(file), l.padLenOff, 8))
	f.Add(forge(file, len(file), l.dictLenOff, uint64(l.padLenOff-l.dictLenOff)))
	f.Add(append([]byte("QRECV005"), file[len(saveMagic):]...))
	depth := append([]byte(nil), file...) // the blob header's depth, outside its CRC
	binary.LittleEndian.PutUint32(depth[l.blobOff+24:], 1<<30)
	f.Add(depth)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Engine
		var err error
		if n := allocatedBy(func() { got, err = Load(bytes.NewReader(data)) }); n > 4<<20+64*uint64(len(data)) {
			t.Fatalf("Load of %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if n := allocatedBy(func() { assertRecommendations(t, "accepted", want, got, persistContexts, 0) }); n > 4<<20 {
			t.Fatalf("answering from an accepted %d-byte file allocated %d", len(data), n)
		}
		path := filepath.Join(dir, "accepted.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := LoadPath(path)
		if err != nil {
			t.Fatalf("Load accepted what LoadPath refuses: %v", err)
		}
		defer mapped.Close()
		assertRecommendations(t, "accepted, mapped", want, mapped, persistContexts, 0)
	})
}
