package obs

import (
	"testing"
	"time"
)

// clockSink keeps the compiler from dropping BenchmarkClockRead's read.
var clockSink time.Duration

// BenchmarkClockRead is the unit BenchmarkRequestInstrument is priced in: one
// monotonic clock read, as Trace.Elapsed makes it. The host's phase moves
// both by the same ±25 %, their ratio in one run much less.
func BenchmarkClockRead(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clockSink = time.Since(epoch)
	}
}

// runInstrument benchmarks seq and reports, as clock-reads, what one run of it
// costs in monotonic clock reads timed in the same function. The ratio comes
// from batches of a fixed size, seq and clock read alternating and the best
// batch of each kept, so it reads the same at -benchtime=25x as at 1s and in
// a slow host phase as in a fast one; make bench-gates holds it under a
// ceiling.
func runInstrument(b *testing.B, seq func()) {
	for i := 0; i < 300; i++ { // fill the ring, settle the pool
		seq()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq()
	}
	b.StopTimer()
	const rounds, batch = 7, 10_000
	var best [2]time.Duration // seq, clock read
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			seq()
		}
		d := time.Since(start)
		if r == 0 || d < best[0] {
			best[0] = d
		}
		start = time.Now()
		for i := 0; i < batch; i++ {
			clockSink = time.Since(epoch)
		}
		if d = time.Since(start); r == 0 || d < best[1] {
			best[1] = d
		}
	}
	b.ReportMetric(float64(best[0])/float64(best[1]), "clock-reads")
}

// BenchmarkRequestInstrument runs what the serve middleware and the GET
// handler's one stage run for a direct cached GET, and nothing else: a pooled
// trace started, the stage's clock read, its span and histogram record, the
// exit clock read, the two request histograms, the trace finished. Three
// clock reads, one span, three records, no allocation.
func BenchmarkRequestInstrument(b *testing.B) {
	var hists [3]Histogram // stage, HTTP request, route
	tracer := NewTracer(16, &hists[1])
	runInstrument(b, func() {
		tr := tracer.Start()
		took := tr.Elapsed().Microseconds()
		hists[0].Record(took)
		tr.Record("cache", 0, took, NoShard, "hit")
		elapsed := tr.Elapsed()
		hists[1].Record(elapsed.Microseconds())
		hists[2].Record(elapsed.Microseconds())
		tracer.FinishElapsed(tr, elapsed, false)
	})
}

// BenchmarkRoutedInstrument runs what the shard router's instruments cost an
// unhedged GET that its first replica answers: the trace started (a client
// sends no ID, so one is carved), the attempt opened on the trace's start,
// the exchange's end read by Now, the attempt span closed and its latency
// recorded, the exit clock read, the request histogram, the trace finished.
// Three clock reads, one span, two records, no allocation.
func BenchmarkRoutedInstrument(b *testing.B) {
	var hists [2]Histogram // attempt, request
	tracer := NewTracer(16, &hists[1])
	runInstrument(b, func() {
		tr := tracer.StartFrom(nil)
		start := tr.Started()
		span := tr.BeginAt("shard", tr.Offset(start))
		tr.SetShard(span, 1)
		end := Now()
		hists[0].Record(end.Sub(start).Microseconds())
		tr.EndAt(span, tr.Offset(end), "ok")
		elapsed := tr.Elapsed()
		hists[1].Record(elapsed.Microseconds())
		tracer.FinishElapsed(tr, elapsed, false)
	})
}
