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
	x := tr.Start()
	inbound := []string{"0123456789abcdef", "second value ignored"}
	x.Adopt(inbound)
	if x.ID() != "0123456789abcdef" {
		t.Fatalf("inbound ID not adopted: %q", x.ID())
	}
	if hv := x.HeaderValue(); len(hv) != 1 || &hv[0] != &inbound[0] {
		t.Fatalf("adopted header value %q is not the inbound slice's first element", hv)
	}
	before := x.ID()
	x.Adopt([]string{"short"}) // wrong length: ignored
	x.Adopt(nil)
	if x.ID() != before {
		t.Fatalf("bad-length Adopt changed the id")
	}
	// A retained adopted trace renders the adopted ID.
	tr.Finish(x, true)
	if views := tr.Snapshot(0, false, 0); len(views) != 1 || views[0].ID != "0123456789abcdef" {
		t.Fatalf("snapshot of adopted trace: %+v", views)
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
	// Drive threshold refresh past the 256-finish boundary.
	for i := 0; i < 300; i++ {
		tr.Finish(tr.Start(), false)
	}
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

func TestContextPropagation(t *testing.T) {
	tr := NewTracer(16, nil)
	x := tr.Start()
	ctx := ContextWithTrace(context.Background(), x)
	if got := TraceFromContext(ctx); got != x {
		t.Fatalf("trace not carried")
	}
	if got := TraceFromContext(context.Background()); got != nil {
		t.Fatalf("empty context returned %v", got)
	}
	tr.Abandon(x)
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
