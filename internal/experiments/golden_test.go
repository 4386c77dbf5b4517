package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// timingLine matches the three lines of RunAll's output that report wall
// time; everything else it prints is a pure function of the seeded corpus.
var timingLine = regexp.MustCompile(`(?m)^(Corpus ready in |All models trained in |Total harness time: )[0-9.]+s`)

// TestQuickGolden: `go run ./cmd/experiments -quick` prints exactly
// testdata/quick.golden, its three timings aside. A change that moves any
// figure or table shows that move in its diff of the golden file;
// `go test ./internal/experiments -run TestQuickGolden -update` rewrites it.
func TestQuickGolden(t *testing.T) {
	opt := DefaultRunOptions()
	opt.Quick = true
	var buf bytes.Buffer
	if _, _, err := RunAll(&buf, opt); err != nil {
		t.Fatal(err)
	}
	got := timingLine.ReplaceAll(buf.Bytes(), []byte("${1}_s"))
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("output differs from %s at line %d:\n got %q\nwant %q\n(rerun with -update if the change is intended, and say why)", path, i+1, g, w)
			}
		}
	}
}
