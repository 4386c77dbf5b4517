package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_us")
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	h.Record(1 << 22)
	r.Counter("test_requests_total").Add(41)
	r.Counter("test_requests_total").Inc()
	r.CounterFunc("test_errors_total", func() uint64 { return 7 })
	r.GaugeFunc("test_weight", func() float64 { return 0.25 })

	out := r.AppendPrometheus(nil)
	fams, err := ParsePrometheus(out)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}

	lat := fams["test_latency_us"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("latency family missing or wrong type: %+v", lat)
	}
	var infCount, count, sum float64
	var prev float64 = -1
	for _, s := range lat.Samples {
		switch {
		case s.Name == "test_latency_us_bucket":
			if s.Value < prev {
				t.Fatalf("bucket counts not cumulative: le=%s %v after %v", s.Le, s.Value, prev)
			}
			prev = s.Value
			if s.Le == "+Inf" {
				infCount = s.Value
			} else if le, err := strconv.ParseFloat(s.Le, 64); err != nil {
				t.Fatalf("bad le %q: %v", s.Le, err)
			} else if math.Log2(le) != math.Trunc(math.Log2(le)) {
				t.Fatalf("le %q not a power of two", s.Le)
			}
		case s.Name == "test_latency_us_count":
			count = s.Value
		case s.Name == "test_latency_us_sum":
			sum = s.Value
		}
	}
	if count != 1001 || infCount != 1001 {
		t.Fatalf("count=%v +Inf=%v, want 1001", count, infCount)
	}
	if want := float64(1000*1001/2 + 1<<22); sum != want {
		t.Fatalf("sum=%v want %v", sum, want)
	}

	if f := fams["test_requests_total"]; f == nil || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Fatalf("requests counter: %+v", f)
	}
	if f := fams["test_errors_total"]; f == nil || f.Type != "counter" || f.Samples[0].Value != 7 {
		t.Fatalf("errors counterfunc: %+v", f)
	}
	if f := fams["test_weight"]; f == nil || f.Type != "gauge" || f.Samples[0].Value != 0.25 {
		t.Fatalf("weight gauge: %+v", f)
	}
}

func TestPrometheusBucketBoundaryConservative(t *testing.T) {
	// Coarsening attributes each internal bucket to the smallest power-of-two
	// boundary >= its UPPER bound. A sample exactly at a power of two sits in
	// an internal bucket whose upper bound is just past it (64 lands in
	// [64,65]), so it coarsens into le=128 — quantiles read from the
	// exposition err high, never low, matching Histogram.Quantile.
	r := NewRegistry()
	h := r.Histogram("edge_us")
	h.Record(63) // internal bucket [63,63] -> le=64
	h.Record(64) // internal bucket [64,65] -> le=128
	h.Record(65) // internal bucket [64,65] -> le=128
	out := r.AppendPrometheus(nil)
	fams, err := ParsePrometheus(out)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got := map[string]float64{}
	for _, s := range fams["edge_us"].Samples {
		if s.Name == "edge_us_bucket" {
			got[s.Le] = s.Value
		}
	}
	if got["64"] != 1 {
		t.Fatalf("le=64 holds %v, want 1 (the 63 sample)", got["64"])
	}
	if got["128"] != 3 {
		t.Fatalf("le=128 holds %v, want 3 (cumulative)", got["128"])
	}
}

func TestPrometheusDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Histogram("b_us").Record(1)
	r.Histogram("a_us").Record(1)
	r.Counter("z_total").Inc()
	r.Counter("a_total").Inc()
	one := string(r.AppendPrometheus(nil))
	two := string(r.AppendPrometheus(nil))
	if one != two {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", one, two)
	}
	if strings.Index(one, "a_us") > strings.Index(one, "b_us") {
		t.Fatalf("histograms not name-sorted:\n%s", one)
	}
	if strings.Index(one, "a_total") > strings.Index(one, "z_total") {
		t.Fatalf("counters not name-sorted:\n%s", one)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	cases := []string{
		"no_type_line 5\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\nx{le=\"1\" 5\n",
	}
	for _, c := range cases {
		if _, err := ParsePrometheus([]byte(c)); err == nil {
			t.Fatalf("parse accepted %q", c)
		}
	}
}

// TestPrometheusScrapeConsistentUnderRecording: every scrape taken while
// recorders run reports _count equal to its own +Inf bucket — both are the one
// pass over the buckets, and no stored count can be read a moment apart from
// them — and once the recorders are done, scrape and Count() agree on the
// total. Run under -race by `make race`.
func TestPrometheusScrapeConsistentUnderRecording(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("busy_us")
	const workers, per = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.RecordN(int64(i*(w+1)), 1+i%3)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrape := func() (count, inf float64) {
		fams, err := ParsePrometheus(r.AppendPrometheus(nil))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		for _, s := range fams["busy_us"].Samples {
			switch {
			case s.Name == "busy_us_count":
				count = s.Value
			case s.Le == "+Inf":
				inf = s.Value
			}
		}
		return count, inf
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if count, inf := scrape(); count != inf {
			t.Fatalf("scrape: _count %v, +Inf bucket %v", count, inf)
		}
	}
	var want uint64
	for i := 0; i < per; i++ {
		want += workers * uint64(1+i%3)
	}
	if count, _ := scrape(); uint64(count) != want || h.Count() != want {
		t.Fatalf("after recording: scrape _count %v, Count() %d, want %d", count, h.Count(), want)
	}
}
