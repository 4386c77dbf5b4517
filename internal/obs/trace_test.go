package obs

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDsUniqueAndHex(t *testing.T) {
	tr := NewTracer(16, nil)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		x := tr.Start()
		id := x.ID()
		if len(id) != traceIDLen {
			t.Fatalf("id length %d", len(id))
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("non-hex id %q", id)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate id %q after %d traces", id, i)
		}
		seen[id] = true
		if hv := x.HeaderValue(); len(hv) != 1 || hv[0] != id {
			t.Fatalf("HeaderValue %q disagrees with ID %q", hv, id)
		}
		tr.Abandon(x)
	}
}

func TestTraceSetIDAdoptsInbound(t *testing.T) {
	tr := NewTracer(16, nil)
	inbound := []string{"0123456789abcdef", "second value ignored"}
	x := tr.StartFrom(inbound)
	if x.ID() != "0123456789abcdef" {
		t.Fatalf("inbound ID not adopted: %q", x.ID())
	}
	if hv := x.HeaderValue(); len(hv) != 1 || &hv[0] != &inbound[0] {
		t.Fatalf("adopted header value %q is not the inbound slice's first element", hv)
	}
	// Anything but lowercase hex of the right length gets a fresh ID.
	for _, bad := range [][]string{nil, {}, {""}, {"short"}, {"0123456789ABCDEF"}, {"a b=c d=e f=g hi"}, {"0123456789abcdef0"}} {
		y := tr.StartFrom(bad)
		if len(bad) > 0 && y.ID() == bad[0] || !validID(y.ID()) {
			t.Fatalf("StartFrom(%q) took ID %q", bad, y.ID())
		}
		tr.Abandon(y)
	}
	// validID's branch-free digit test against the plain one, every byte in
	// every position.
	for c := 0; c < 256; c++ {
		for pos := 0; pos < traceIDLen; pos++ {
			id := []byte("0123456789abcdef")
			id[pos] = byte(c)
			if want := c >= '0' && c <= '9' || c >= 'a' && c <= 'f'; validID(string(id)) != want {
				t.Fatalf("validID(%q) = %v", id, !want)
			}
		}
	}
	// A retained adopted trace renders the adopted ID.
	tr.Finish(x, true)
	if views := tr.Snapshot(0, false, 0); len(views) != 1 || views[0].ID != "0123456789abcdef" {
		t.Fatalf("snapshot of adopted trace: %+v", views)
	}
}

// TestStartFromAdoptsWithoutCarving: a trace that adopts its ID takes nothing
// from the ID block — no sequence number, no slot, no allocation amortised —
// and carries the caller's own header slice.
func TestStartFromAdoptsWithoutCarving(t *testing.T) {
	tr := NewTracer(16, nil)
	inbound := []string{"feedfacecafebeef"}
	for i := 0; i < 1000; i++ {
		x := tr.StartFrom(inbound)
		if hv := x.HeaderValue(); len(hv) != 1 || &hv[0] != &inbound[0] {
			t.Fatalf("trace %d: header value %q is not the inbound slice", i, hv)
		}
		tr.Finish(x, false)
	}
	if blk, seq := tr.ids.Load(), tr.seq.Load(); blk != nil || seq != 0 {
		t.Fatalf("1000 adopted traces carved IDs: block %p, sequence %d", blk, seq)
	}
}

// TestAdoptingTracerRefreshesThreshold: a tracer whose every trace is adopted
// — a shard behind a router — carves no ID block, yet still picks up its slow
// histogram's p99, and picks up a later one once a finish ends refreshEvery
// past the last refresh. Driven by FinishElapsed offsets, no sleep.
func TestAdoptingTracerRefreshesThreshold(t *testing.T) {
	slow := &Histogram{}
	tr := NewTracer(16, slow)
	inbound := []string{"0123456789abcdef"}
	// finish runs an adopted trace of the given total that ends at end (an
	// offset from epoch; its start is set to match, so no clock decides
	// anything) and reports whether it was retained.
	finish := func(end, total time.Duration) bool {
		x := tr.StartFrom(inbound)
		x.start = end - total
		tr.FinishElapsed(x, total, false)
		v := tr.Snapshot(0, false, 1)
		return len(v) == 1 && v[0].TotalMicros == total.Microseconds()
	}
	next := func() time.Duration { return time.Duration(tr.refreshAt.Load()) }
	threshold := func(lo, hi int64) {
		t.Helper()
		if th := tr.SlowThresholdMicros(); th < lo || th > hi {
			t.Fatalf("threshold = %d us, want [%d, %d]", th, lo, hi)
		}
	}
	slow.RecordN(10, 100)
	for i := 0; i < 16; i++ { // fill the ring; the first finish refreshes
		finish(0, 0)
		threshold(10, 11)
	}
	slow.RecordN(5000, 10_000)
	finish(next()-time.Nanosecond, 0) // ends just short of the refresh point
	threshold(10, 11)
	// The finish that refreshes is judged by the threshold before it: 1 ms
	// is over the old p99 and under the new one, and it is kept.
	if !finish(next(), time.Millisecond) {
		t.Fatal("the refreshing 1 ms trace was judged by the threshold it raised")
	}
	threshold(5000, 5200)
	if finish(0, 4*time.Millisecond) {
		t.Fatal("a 4 ms trace under a ~5 ms threshold was retained with the ring full")
	}
	if !finish(0, 6*time.Millisecond) {
		t.Fatal("a 6 ms trace over a ~5 ms threshold was not retained")
	}
	if tr.ids.Load() != nil {
		t.Fatal("an adopting tracer carved an ID block")
	}
}

// TestNowIsMonotonic pins obs.Now's contract: it carries a monotonic reading,
// agrees with time.Now on both clocks, and a deadline built on it fires no
// earlier than asked.
func TestNowIsMonotonic(t *testing.T) {
	now := Now()
	if now.Round(0) == now || !strings.Contains(now.String(), " m=") {
		t.Fatalf("Now() = %v carries no monotonic reading", now)
	}
	ref := time.Now()
	if d := Now().Sub(ref); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("Now() is %v off time.Now on the monotonic clock", d)
	}
	if d := Now().Round(0).Sub(ref.Round(0)); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("Now() is %v off time.Now on the wall clock", d)
	}
	const wait = 20 * time.Millisecond
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), Now().Add(wait))
	defer cancel()
	<-ctx.Done()
	if took := time.Since(start); took < wait {
		t.Fatalf("a deadline %v after Now() fired after %v", wait, took)
	}
}

// TestTraceIDSurvivesRecycle is the use-after-recycle regression: a header
// value taken from a trace must read the same after the trace has been
// finished and the pool has handed its storage to later requests — net/http
// writes response headers only after the handler (and its Finish) returned.
// IDs used to live in the pooled Trace and were rewritten by the next Start.
func TestTraceIDSurvivesRecycle(t *testing.T) {
	tr := NewTracer(16, nil)
	// Fill the retention ring first: until then every trace is retained and
	// nothing goes back to the pool.
	for i := 0; i < 16; i++ {
		tr.Finish(tr.Start(), false)
	}
	type held struct {
		hv   []string
		id   string // aliases the trace's storage, like a header value does
		want string // owned copy taken while the trace was live
	}
	var helds []held
	seen := make(map[string]bool)
	// More traces than one ID block holds, so the check spans a block change.
	for i := 0; i < 3*idBlockLen; i++ {
		x := tr.Start()
		h := held{hv: x.HeaderValue(), id: x.ID(), want: strings.Clone(x.ID())}
		if seen[h.want] {
			t.Fatalf("trace %d: duplicate id %q", i, h.want)
		}
		seen[h.want] = true
		helds = append(helds, h)
		tr.Finish(x, false) // recycled: the next Start reuses this Trace
	}
	for i, h := range helds {
		if h.hv[0] != h.want || h.id != h.want {
			t.Fatalf("trace %d: id changed after recycle: header %q, string %q, want %q", i, h.hv[0], h.id, h.want)
		}
	}
}

// TestTracerConcurrentStartUniqueIDs hammers the block carve from several
// goroutines: every ID is handed out once, across block changes.
func TestTracerConcurrentStartUniqueIDs(t *testing.T) {
	tr := NewTracer(16, nil)
	const workers, per = 8, 2 * idBlockLen
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x := tr.Start()
				ids[w] = append(ids[w], x.ID())
				tr.Finish(x, false)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, workers*per)
	for _, list := range ids {
		for _, id := range list {
			if len(id) != traceIDLen || seen[id] {
				t.Fatalf("id %q is malformed or was handed out twice", id)
			}
			seen[id] = true
		}
	}
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := NewTracer(16, nil)
	x := tr.Start()
	i := x.Begin("cache")
	x.End(i, "miss")
	j := x.Begin("descent")
	x.SetShard(j, 3)
	time.Sleep(2 * time.Millisecond)
	x.End(j, "ok")
	x.Event("breaker-skip", 1, "open")
	tr.Finish(x, false)

	views := tr.Snapshot(0, false, 0)
	if len(views) != 1 {
		t.Fatalf("snapshot size %d", len(views))
	}
	v := views[0]
	if len(v.Spans) != 3 {
		t.Fatalf("spans %d", len(v.Spans))
	}
	if v.Spans[0].Name != "cache" || v.Spans[0].Outcome != "miss" {
		t.Fatalf("span 0: %+v", v.Spans[0])
	}
	d := v.Spans[1]
	if d.Name != "descent" || d.Shard != 3 || d.Outcome != "ok" || d.DurMicros < 1500 {
		t.Fatalf("span 1: %+v", d)
	}
	if e := v.Spans[2]; e.Name != "breaker-skip" || e.Shard != 1 || e.DurMicros != 0 {
		t.Fatalf("event span: %+v", e)
	}
	if v.TotalMicros < d.StartMicros+d.DurMicros {
		t.Fatalf("total %d below span end %d", v.TotalMicros, d.StartMicros+d.DurMicros)
	}
	// Span end offsets can never exceed the finished total.
	for _, sp := range v.Spans {
		if sp.StartMicros+sp.DurMicros > v.TotalMicros {
			t.Fatalf("span %q overruns total: %+v vs %d", sp.Name, sp, v.TotalMicros)
		}
	}
}

func TestTraceSpanOverflowCounted(t *testing.T) {
	tr := NewTracer(16, nil)
	x := tr.Start()
	for k := 0; k < MaxSpans+5; k++ {
		i := x.Begin("s")
		x.End(i, "ok")
	}
	if x.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", x.Dropped)
	}
	tr.Finish(x, false)
	if v := tr.Snapshot(0, false, 0); len(v) != 1 || v[0].Dropped != 5 || len(v[0].Spans) != MaxSpans {
		t.Fatalf("overflow view: %+v", v)
	}
}

// TestTraceBeginAtEndAt: the clock-free twins store exactly the offsets they
// are given — so two spans fed one clock read abut — and otherwise behave as
// Begin and End do: unattributed until SetShard, counted and refused with
// NoShard once the span array is full, deaf to an index that is no span.
func TestTraceBeginAtEndAt(t *testing.T) {
	tr := NewTracer(16, nil)
	x := tr.Start()
	i := x.BeginAt("shard", 137*time.Microsecond)
	x.EndAt(i, 1137*time.Microsecond+900*time.Nanosecond, "error")
	j := x.BeginAt("shard", 1137*time.Microsecond+900*time.Nanosecond)
	x.SetShard(j, 2)
	x.EndAt(j, 1500*time.Microsecond, "ok")
	x.EndAt(NoShard, time.Hour, "ignored")
	x.EndAt(7, time.Hour, "ignored")
	for k := 2; k < MaxSpans; k++ {
		x.EndAt(x.BeginAt("fill", 0), 0, "ok")
	}
	if got := x.BeginAt("one too many", time.Second); got != NoShard || x.Dropped != 1 {
		t.Fatalf("BeginAt on a full trace = %d with %d dropped, want NoShard and 1", got, x.Dropped)
	}
	tr.FinishElapsed(x, 2*time.Millisecond, false)
	v := tr.Snapshot(0, false, 0)[0]
	want := []SpanView{
		{Name: "shard", StartMicros: 137, DurMicros: 1000, Shard: NoShard, Outcome: "error"},
		{Name: "shard", StartMicros: 1137, DurMicros: 363, Shard: 2, Outcome: "ok"},
	}
	for k, w := range want {
		if v.Spans[k] != w {
			t.Fatalf("span %d = %+v, want %+v", k, v.Spans[k], w)
		}
	}
	if len(v.Spans) != MaxSpans || v.Dropped != 1 || v.TotalMicros != 2000 {
		t.Fatalf("%d spans, %d dropped, total %d", len(v.Spans), v.Dropped, v.TotalMicros)
	}
}

func TestTailSamplingRetainsErroredAndSlow(t *testing.T) {
	slow := &Histogram{}
	tr := NewTracer(16, slow)
	// Fill the ring (everything retained while not full), then establish a
	// low p99 threshold and verify fast-clean traces are dropped while
	// errored ones are retained.
	for i := 0; i < 16; i++ {
		tr.Finish(tr.Start(), false)
	}
	for i := 0; i < 300; i++ {
		slow.Record(10)
	}
	// Drive a threshold refresh: a finish that ends refreshEvery past the
	// last one (the first of the fill above).
	tr.FinishElapsed(tr.Start(), refreshEvery, false)
	if th := tr.SlowThresholdMicros(); th <= 0 || th > 1000 {
		t.Fatalf("threshold = %d, want small positive", th)
	}
	errTrace := tr.Start()
	tr.Finish(errTrace, true)
	views := tr.Snapshot(0, true, 0)
	if len(views) != 1 || !views[0].Err {
		t.Fatalf("errored trace not retained: %+v", views)
	}
	forced := tr.Start()
	forced.Force()
	id := forced.ID()
	tr.Finish(forced, false)
	found := false
	for _, v := range tr.Snapshot(0, false, 0) {
		if v.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("forced trace not retained")
	}
	// A caller that read the clock itself hands the duration in: it is the
	// trace's total, and what the slow threshold is compared with.
	tr.FinishElapsed(tr.Start(), time.Second, false)
	if views := tr.Snapshot(1_000_000, false, 0); len(views) != 1 || views[0].TotalMicros != 1_000_000 || views[0].Err {
		t.Fatalf("slow trace finished with its elapsed time: %+v", views)
	}
}

func TestSnapshotFilters(t *testing.T) {
	tr := NewTracer(16, nil)
	a := tr.Start()
	time.Sleep(3 * time.Millisecond)
	tr.Finish(a, false)
	b := tr.Start()
	tr.Finish(b, true)
	if got := tr.Snapshot(2000, false, 0); len(got) != 1 || got[0].TotalMicros < 2000 {
		t.Fatalf("min_us filter: %+v", got)
	}
	if got := tr.Snapshot(0, true, 0); len(got) != 1 || !got[0].Err {
		t.Fatalf("error filter: %+v", got)
	}
	if got := tr.Snapshot(0, false, 1); len(got) != 1 {
		t.Fatalf("limit: %+v", got)
	}
	// Newest first.
	if got := tr.Snapshot(0, false, 0); len(got) != 2 || !got[0].Err || got[1].Err {
		t.Fatalf("ordering: %+v", got)
	}
}

// headerCtx is a TraceHeaderCarrier the way the router's attempt context is
// one: the header value is a field, and Value answers TraceHeaderKey with it.
type headerCtx struct {
	context.Context
	hv []string
}

func (c headerCtx) TraceHeader() []string { return c.hv }

func (c headerCtx) Value(key any) any {
	if _, ok := key.(TraceHeaderKey); ok {
		return c.hv
	}
	return c.Context.Value(key)
}

// TestTraceHeaderFromContext: a carrier is read through its method, a stdlib
// context derived from one still finds the header through Value, and a context
// that carries none — an empty one, a nil one — yields nil.
func TestTraceHeaderFromContext(t *testing.T) {
	hv := []string{"0123456789abcdef"}
	var carrier context.Context = headerCtx{context.Background(), hv}
	child, cancel := context.WithCancel(carrier)
	defer cancel()
	for name, ctx := range map[string]context.Context{"carrier": carrier, "derived": child} {
		if got := TraceHeaderFromContext(ctx); len(got) != 1 || &got[0] != &hv[0] {
			t.Fatalf("%s context: header %q is not the carried slice", name, got)
		}
	}
	if got := TraceHeaderFromContext(context.Background()); got != nil {
		t.Fatalf("empty context returned %q", got)
	}
	if got := TraceHeaderFromContext(nil); got != nil {
		t.Fatalf("nil context returned %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { TraceHeaderFromContext(carrier) }); allocs != 0 {
		t.Fatalf("reading a carrier allocates %.0f times", allocs)
	}
}

func TestTracerConcurrentFinishSnapshot(t *testing.T) {
	slow := &Histogram{}
	tr := NewTracer(64, slow)
	var producers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < 2000; i++ {
				x := tr.Start()
				s := x.Begin("stage")
				x.End(s, "ok")
				slow.Record(5)
				tr.Finish(x, i%17 == 0)
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot(0, false, 10)
			}
		}
	}()
	producers.Wait()
	close(stop)
	readers.Wait()
}

// TestTracersShareNoIDs: tracers built back to back — a router process builds
// four — hand out disjoint IDs. Seeded by the clock alone, a tracer built δ ns
// after another replayed its sequence δ traces later.
func TestTracersShareNoIDs(t *testing.T) {
	const tracers, per = 3, 200_000
	var trs [tracers]*Tracer
	for i := range trs {
		trs[i] = NewTracer(16, nil)
	}
	ids := make([]uint64, 0, tracers*per)
	for _, tr := range trs {
		for i := 0; i < per; i++ {
			x := tr.Start()
			id, err := strconv.ParseUint(x.ID(), 16, 64)
			if err != nil {
				t.Fatalf("id %q: %v", x.ID(), err)
			}
			ids = append(ids, id)
			tr.Abandon(x)
		}
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("trace ID %016x was handed out twice across %d tracers", ids[i], tracers)
		}
	}
}

// TestInstrumentClockReads prices the request path's instruments in
// monotonic clock reads timed in the same rounds, and holds each sequence
// under 6.0 of them. Direct GET: what the serve middleware and the GET
// handler's one stage run for a cached GET — a pooled trace started, the
// stage's clock read, its span and histogram record, the serving arm's
// latency record, the exit clock read, the two request
// histograms, the trace finished: three reads, one span, four records.
// Routed hop: what the shard router's instruments cost an unhedged
// GET that its first replica answers — the trace started (a client sends no
// ID, so one is carved), the attempt opened on the trace's start, the
// exchange's end read by Now, the attempt span closed and its latency
// recorded, the exit clock read, the request histogram, the trace finished:
// three reads, one span, two records. They read 5.6–5.8 and 5.1–5.3 on a
// 2-vCPU x86-64 VM, idle or running the rest of the suite; a fourth clock
// read reads 6.6+.
func TestInstrumentClockReads(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timings are not meaningful under -race")
	}
	var direct [4]Histogram // stage, HTTP request, route, serving arm
	directTracer := NewTracer(16, &direct[1])
	var routed [2]Histogram // attempt, request
	routedTracer := NewTracer(16, &routed[1])
	for _, tc := range []struct {
		name string
		seq  func()
	}{
		{"direct GET", func() {
			tr := directTracer.Start()
			took := tr.Elapsed().Microseconds()
			direct[0].Record(took)
			tr.Record("cache", 0, took, NoShard, "hit")
			direct[3].Record(took)
			elapsed := tr.Elapsed()
			direct[1].Record(elapsed.Microseconds())
			direct[2].Record(elapsed.Microseconds())
			directTracer.FinishElapsed(tr, elapsed, false)
		}},
		{"routed hop", func() {
			tr := routedTracer.StartFrom(nil)
			start := tr.Started()
			span := tr.BeginAt("shard", tr.Offset(start))
			tr.SetShard(span, 1)
			end := Now()
			routed[0].Record(end.Sub(start).Microseconds())
			tr.EndAt(span, tr.Offset(end), "ok")
			elapsed := tr.Elapsed()
			routed[1].Record(elapsed.Microseconds())
			routedTracer.FinishElapsed(tr, elapsed, false)
		}},
	} {
		// A reading over the ceiling is taken again, up to five times, and
		// the best is kept: a host busy with other work for a while inflates
		// one reading, a fourth clock read inflates every one.
		reads := clockReads(tc.seq)
		for try := 1; try < 5 && reads > 6.0; try++ {
			reads = min(reads, clockReads(tc.seq))
		}
		t.Logf("%s: %.2f clock reads", tc.name, reads)
		if reads > 6.0 {
			t.Errorf("the %s's instruments cost %.2f clock reads, want <= 6.0", tc.name, reads)
		}
	}
}

// clockSink keeps the compiler from dropping clockReads' bare reads.
var clockSink time.Duration

// clockReads returns what one run of seq costs in monotonic clock reads, as
// Trace.Elapsed makes them. Each round times a batch of seq and then a batch
// of bare reads, and prices seq by the ratio of the two; the 10th percentile
// of the rounds' ratios is kept. The two batches of a round run under the
// same host phase, so its ratio holds while other work loads the host,
// where a ratio of the best batch of each kind, taken in different rounds,
// read up to 7.1 under a concurrent `go test` of four packages against
// 5.7 idle on a 2-vCPU VM; the percentile read 5.7–5.8 in both. It skips
// the rounds whose bare-read batch was preempted, which read far low.
func clockReads(seq func()) float64 {
	for i := 0; i < 300; i++ { // fill the retention ring, settle the pool
		seq()
	}
	const rounds, batch = 201, 1_000
	ratios := make([]float64, rounds)
	for r := range ratios {
		start := time.Now()
		for i := 0; i < batch; i++ {
			seq()
		}
		d := time.Since(start)
		start = time.Now()
		for i := 0; i < batch; i++ {
			clockSink = time.Since(epoch)
		}
		ratios[r] = float64(d) / float64(time.Since(start))
	}
	slices.Sort(ratios)
	return ratios[rounds/10]
}
