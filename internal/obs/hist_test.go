package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestBucketIndexDirectRegion(t *testing.T) {
	for v := uint64(0); v < subCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
		if up := bucketUpper(int(v)); up != int64(v) {
			t.Fatalf("bucketUpper(%d) = %d, want %d", v, up, v)
		}
	}
}

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	prev := -1
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<62 + 12345, math.MaxInt64}
	for _, v := range vals {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range %d", v, idx, numBuckets)
		}
		up := bucketUpper(idx)
		if up < int64(v) {
			t.Fatalf("bucketUpper(%d)=%d below value %d", idx, up, v)
		}
		// Relative error bound: upper exceeds the value by < value/subCount
		// outside the direct region.
		if v >= subCount && float64(up-int64(v)) >= float64(v)/subCount {
			t.Fatalf("bucket width too wide at %d: upper %d", v, up)
		}
		prev = idx
	}
}

func TestBucketRoundTripExhaustiveEdges(t *testing.T) {
	// Every bucket's upper bound must map back into the same bucket, and
	// upper+1 into the next occupied bucket.
	for idx := 0; idx < numBuckets; idx++ {
		up := bucketUpper(idx)
		if got := bucketIndex(uint64(up)); got != idx {
			t.Fatalf("bucketIndex(bucketUpper(%d)=%d) = %d", idx, up, got)
		}
		if up < math.MaxInt64 && idx+1 < numBuckets {
			if got := bucketIndex(uint64(up + 1)); got != idx+1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d", up+1, got, idx+1)
			}
		}
	}
}

func TestHistogramQuantileNeverUnderReports(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 800) // latency-shaped
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		rank := int(math.Ceil(q*float64(len(samples)))) - 1
		exact := samples[rank]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("q=%v under-reported: got %d, exact %d", q, got, exact)
		}
		bound := float64(exact) + float64(exact)/subCount + 1
		if float64(got) > bound {
			t.Fatalf("q=%v over bound: got %d, exact %d (bound %.1f)", q, got, exact, bound)
		}
	}
	if h.Max() != samples[len(samples)-1] {
		t.Fatalf("max: got %d want %d", h.Max(), samples[len(samples)-1])
	}
}

func TestHistogramQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	h.Record(7)
	for _, q := range []float64{0.001, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("single-sample q=%v = %d, want 7", q, got)
		}
	}
	if h.Count() != 1 || h.Sum() != 7 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative sample not clamped: count=%d sum=%d q=%d", h.Count(), h.Sum(), h.Quantile(1))
	}
}

// TestHistogramRecordN: RecordN(v, n) leaves exactly what n calls of
// Record(v) leave — count, sum, max and every bucket — negative samples clamp
// the same way, and n <= 0 records nothing.
func TestHistogramRecordN(t *testing.T) {
	var batched, single Histogram
	for _, tc := range []struct {
		v int64
		n int
	}{{0, 3}, {7, 1}, {31, 64}, {32, 2}, {1000, 64}, {-5, 4}, {1 << 40, 5}, {9, 0}, {9, -2}} {
		batched.RecordN(tc.v, tc.n)
		for i := 0; i < tc.n; i++ {
			single.Record(tc.v)
		}
	}
	if batched.Count() != single.Count() || batched.Sum() != single.Sum() || batched.Max() != single.Max() {
		t.Fatalf("scalars: %d/%d/%d batched vs %d/%d/%d single",
			batched.Count(), batched.Sum(), batched.Max(), single.Count(), single.Sum(), single.Max())
	}
	for i := range single.buckets {
		if got, want := batched.buckets[i].Load(), single.buckets[i].Load(); got != want {
			t.Fatalf("bucket %d: %d batched vs %d single", i, got, want)
		}
	}
	if batched.Count() != 3+1+64+2+64+4+5 {
		t.Fatalf("count = %d: n <= 0 must record nothing", batched.Count())
	}
}

// TestHistogramRecordAllocs: one record — the primitive every request-path
// instrument rides on — allocates nothing.
func TestHistogramRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var h Histogram
	v := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v & 0xffff)
		v += 37
	}); allocs != 0 {
		t.Fatalf("Histogram.Record allocates %.2f times per call, want 0", allocs)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		both.Record(i)
	}
	for i := int64(5000); i < 6000; i++ {
		b.Record(i)
		both.Record(i)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Max() != both.Max() {
		t.Fatalf("merge scalars: %d/%d/%d vs %d/%d/%d",
			a.Count(), a.Sum(), a.Max(), both.Count(), both.Sum(), both.Max())
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merge q=%v: %d vs %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
	a.Merge(nil) // must be a no-op
	if a.Count() != both.Count() {
		t.Fatalf("nil merge changed count")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1 << 20)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
	}
	if cum != workers*per {
		t.Fatalf("bucket total = %d, want %d", cum, workers*per)
	}
}

// TestHistogramMatchesSortedReference: with no stored count, Count is the
// samples recorded — by Record, RecordN and Merge alike — and Quantile is
// exactly the upper edge of the bucket that holds the ceil(q*n)-th smallest
// of them, read from a sorted slice of the same samples.
func TestHistogramMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var h, other Histogram
	var samples []int64
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 800)
		if i%50 == 0 {
			v = rng.Int63n(1 << 40) // the far tail: wide buckets
		}
		switch n := 1 + rng.Intn(64); i % 3 {
		case 0:
			h.Record(v)
			samples = append(samples, v)
		case 1:
			h.RecordN(v, n)
			for k := 0; k < n; k++ {
				samples = append(samples, v)
			}
		default:
			other.RecordN(v, n)
			for k := 0; k < n; k++ {
				samples = append(samples, v)
			}
		}
	}
	h.Merge(&other)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if got := h.Count(); got != uint64(len(samples)) {
		t.Fatalf("Count() = %d, want the %d samples recorded", got, len(samples))
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		want := bucketUpper(bucketIndex(uint64(samples[rank-1])))
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %d, want %d: the bucket of sample %d of %d (%d)",
				q, got, want, rank, len(samples), samples[rank-1])
		}
	}
}

// TestDerivedEqualsMerged is the derived view's property: for random parts,
// a derived histogram's Count, Sum, Max, Quantile and exposition equal those
// of a fresh histogram that Merged the same parts — after every record, so
// the parts' later samples show through. Deriving again adds no part twice,
// and merging a derived view merges its parts.
func TestDerivedEqualsMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	qs := []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 40; trial++ {
		parts := make([]*Histogram, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = &Histogram{}
		}
		var derived Histogram
		derived.Derive(parts...)
		derived.Derive(parts[0]) // no part twice
		for step := 0; step < 60; step++ {
			p := parts[rng.Intn(len(parts))]
			p.RecordN(int64(math.Exp(rng.Float64()*16)), 1+rng.Intn(3))
			var merged Histogram
			for _, p := range parts {
				merged.Merge(p)
			}
			var viaDerived Histogram
			viaDerived.Merge(&derived)
			for _, h := range []*Histogram{&derived, &viaDerived} {
				if h.Count() != merged.Count() || h.Sum() != merged.Sum() || h.Max() != merged.Max() {
					t.Fatalf("trial %d step %d: count/sum/max %d/%d/%d, merged %d/%d/%d", trial, step,
						h.Count(), h.Sum(), h.Max(), merged.Count(), merged.Sum(), merged.Max())
				}
				for _, q := range qs {
					if got, want := h.Quantile(q), merged.Quantile(q); got != want {
						t.Fatalf("trial %d step %d: Quantile(%v) = %d, merged %d", trial, step, q, got, want)
					}
				}
				if got, want := appendPromHistogram(nil, "x", h), appendPromHistogram(nil, "x", &merged); string(got) != string(want) {
					t.Fatalf("trial %d step %d: exposition\n%s\nmerged\n%s", trial, step, got, want)
				}
			}
		}
	}
	var empty Histogram
	empty.Derive()
	if empty.Count() != 0 || empty.Quantile(0.99) != 0 || empty.Max() != 0 {
		t.Fatalf("a derived view of no parts reads %d samples", empty.Count())
	}
}

// TestRegistryDeriveInPlace: a pointer taken from Histogram(name) before
// the registered histogram is derived reads the derived view — a tracer built on
// serve_http_request_us before its handler derives it gets a threshold.
func TestRegistryDeriveInPlace(t *testing.T) {
	reg := NewRegistry()
	early := reg.Histogram("request_us")
	a, b := reg.Histogram("route_a_us"), reg.Histogram("route_b_us")
	reg.Histogram("request_us").Derive(a, b)
	a.RecordN(100, 3)
	b.Record(5000)
	if early.Count() != 4 || early.Max() != 5000 || early.Sum() != 5300 {
		t.Fatalf("derived view read count %d, max %d, sum %d", early.Count(), early.Max(), early.Sum())
	}
	tr := NewTracer(16, early)
	tr.Finish(tr.Start(), false)
	if th := tr.SlowThresholdMicros(); th < 5000 || th > 5000*33/32 {
		t.Fatalf("threshold from the derived view = %d us, want its p99, ~5000", th)
	}
}
