package obs

import (
	"math"
	"testing"
)

// promName maps arbitrary bytes onto a valid metric name: a letter, then
// letters, digits, '_' and ':'.
func promName(raw string) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
	b := []byte{'m'}
	for i := 0; i < len(raw) && i < 64; i++ {
		b = append(b, alphabet[int(raw[i])%len(alphabet)])
	}
	return string(b)
}

// FuzzParsePrometheus checks the exposition parser two ways: arbitrary bytes
// never panic it, and a registry's own AppendPrometheus output, over fuzzed
// names and values, parses back with every family under its name and type
// and every value intact.
func FuzzParsePrometheus(f *testing.F) {
	r := NewRegistry()
	r.Histogram("seed_latency_us").Record(3)
	r.Counter("seed_total").Add(2)
	r.GaugeFunc("seed_weight", func() float64 { return 0.5 })
	f.Add(r.AppendPrometheus(nil), "name", uint64(7), 0.25, int64(100))
	f.Add([]byte("# TYPE x histogram\nx_bucket{le=\"1\"} 1\nx_sum 1\nx_count 1\n"), "", uint64(0), math.Inf(-1), int64(-1))
	f.Add([]byte("x{le=\"1\" 1\n# TYPE\n \n{} NaN\nx_count{le=} +Inf"), "a:b_c", uint64(1<<63), math.NaN(), int64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, raw string, count uint64, gauge float64, sample int64) {
		_, _ = ParsePrometheus(data)

		name := promName(raw)
		r := NewRegistry()
		h := r.Histogram(name + "_h")
		h.Record(sample)
		h.Record(sample / 3)
		r.Counter(name + "_c").Add(count)
		r.GaugeFunc(name+"_g", func() float64 { return gauge })
		out := r.AppendPrometheus(nil)
		fams, err := ParsePrometheus(out)
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, out)
		}
		for _, want := range []struct{ name, typ string }{{name + "_h", "histogram"}, {name + "_c", "counter"}, {name + "_g", "gauge"}} {
			if fam := fams[want.name]; fam == nil || fam.Type != want.typ || len(fam.Samples) == 0 {
				t.Fatalf("family %q: %+v, want a %s\n%s", want.name, fam, want.typ, out)
			}
		}
		if len(fams) != 3 {
			t.Fatalf("%d families parsed, want 3\n%s", len(fams), out)
		}
		if got := fams[name+"_c"].Samples[0].Value; got != float64(count) {
			t.Fatalf("counter reads %v, want %v", got, float64(count))
		}
		if got := fams[name+"_g"].Samples[0].Value; got != gauge && !(math.IsNaN(got) && math.IsNaN(gauge)) {
			t.Fatalf("gauge reads %v, want %v", got, gauge)
		}
		var n float64
		for _, s := range fams[name+"_h"].Samples {
			if s.Name == name+"_h_count" {
				n = s.Value
			}
		}
		if n != 2 {
			t.Fatalf("histogram count reads %v, want 2\n%s", n, out)
		}
	})
}
