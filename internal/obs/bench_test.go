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

// BenchmarkRequestInstrument runs what the serve middleware and the GET
// handler's one stage run for a direct cached GET, and nothing else: a pooled
// trace started, the stage's clock read, its span and histogram record, the
// exit clock read, the two request histograms, the trace finished. Three
// clock reads, one span, three records, no allocation.
func BenchmarkRequestInstrument(b *testing.B) {
	var hists [3]Histogram // stage, HTTP request, route
	tracer := NewTracer(16, &hists[1])
	for i := 0; i < 300; i++ { // fill the ring, settle the pool, stop mid-block
		tracer.Finish(tracer.Start(), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tracer.Start()
		took := tr.Elapsed().Microseconds()
		hists[0].Record(took)
		tr.Record("cache", 0, took, NoShard, "hit")
		elapsed := tr.Elapsed()
		hists[1].Record(elapsed.Microseconds())
		hists[2].Record(elapsed.Microseconds())
		tracer.FinishElapsed(tr, elapsed, false)
	}
}
