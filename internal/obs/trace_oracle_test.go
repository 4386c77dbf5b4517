package obs

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// oracleTrace is a recorder as the pointer ring kept it: the Trace itself,
// plus the ID copied out of its header value when it was retained.
type oracleTrace struct {
	Trace
	kept [traceIDLen]byte
}

// oracleTracer is the retention ring as it was before a retained trace was
// copied out of its recorder: a ring of whole pooled recorders, the evicted
// one recycled. Its StartFrom, FinishElapsed and Snapshot are kept verbatim
// as the differential oracle for Tracer's ring of copied records, less what
// a nil slow histogram never runs (the threshold refresh) and ID carving
// (the oracle adopts the live trace's ID, so the two render the same).
type oracleTracer struct {
	pool   sync.Pool
	thresh atomic.Int64

	mu   sync.Mutex
	ring []*oracleTrace
	next int
	size int
	full atomic.Bool
}

func newOracleTracer(capacity int) *oracleTracer {
	if capacity < 16 {
		capacity = 16
	}
	t := &oracleTracer{ring: make([]*oracleTrace, capacity)}
	t.thresh.Store(math.MaxInt64)
	t.pool.New = func() any { return new(oracleTrace) }
	return t
}

func (t *oracleTracer) StartFrom(inbound []string) *oracleTrace {
	tr := t.pool.Get().(*oracleTrace)
	tr.start = time.Since(epoch)
	tr.n = 0
	tr.Dropped = 0
	tr.total = 0
	tr.err = false
	tr.forced = false
	tr.hv = inbound[:1]
	return tr
}

func (t *oracleTracer) FinishElapsed(tr *oracleTrace, elapsed time.Duration, errored bool) {
	tr.total = elapsed.Microseconds()
	if errored {
		tr.err = true
	}
	keep := tr.err || tr.forced || tr.total >= t.thresh.Load()
	if !keep && t.full.Load() {
		t.pool.Put(tr)
		return
	}
	t.mu.Lock()
	if !keep && t.size == len(t.ring) {
		t.mu.Unlock()
		t.pool.Put(tr)
		return
	}
	copy(tr.kept[:], tr.hv[0])
	tr.hv = nil
	evicted := t.ring[t.next]
	t.ring[t.next] = tr
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	if t.size < len(t.ring) {
		t.size++
		t.full.Store(t.size == len(t.ring))
	}
	t.mu.Unlock()
	if evicted != nil {
		t.pool.Put(evicted)
	}
}

func (t *oracleTracer) Snapshot(minMicros int64, onlyErrors bool, limit int) []TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceView, 0, t.size)
	for k := 0; k < t.size; k++ {
		idx := t.next - 1 - k
		for idx < 0 {
			idx += len(t.ring)
		}
		tr := t.ring[idx]
		if tr == nil || tr.total < minMicros || (onlyErrors && !tr.err) {
			continue
		}
		tv := TraceView{
			ID:          string(tr.kept[:]),
			TotalMicros: tr.total,
			Err:         tr.err,
			Dropped:     tr.Dropped,
			Spans:       make([]SpanView, tr.n),
		}
		for i := 0; i < tr.n; i++ {
			sp := &tr.spans[i]
			tv.Spans[i] = SpanView{
				Name:        sp.Name,
				StartMicros: sp.StartMicros,
				DurMicros:   sp.DurMicros,
				Shard:       sp.Shard,
				Outcome:     sp.Outcome,
			}
		}
		out = append(out, tv)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Labels the retention program draws its spans' names and outcomes from.
var (
	progNames    = []string{"cache", "descent", "shard", "shard-batch", "breaker-skip", "read"}
	progOutcomes = []string{"ok", "error", "hit", "miss", "hedge-won", "cancelled"}
	progInbound  = [][]string{nil, {"0123456789abcdef"}, {"feedfacecafebeef"}, {"not an id"}}
)

// runRetentionProgram reads prog as a sequence of traces and runs each on a
// Tracer and on the oracle side by side: a start (carved or adopted ID), up
// to 63 recorder calls, and a FinishElapsed, after which the two Snapshots
// must be deep-equal under every filter. Begin, End and Event read the clock
// once per recorder, and the two reads differ; the oracle's span takes the
// offset the live one read, which is all a clock read sets. Both tracers
// have no slow histogram, so retention is decided by the error and force
// flags and the ring's fill alone.
func runRetentionProgram(t *testing.T, prog []byte) {
	t.Helper()
	tr, or := NewTracer(16, nil), newOracleTracer(16)
	x := new(Trace) // one recorder for every trace, as its owner keeps it
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for traces := 0; len(prog) > 0; traces++ {
		tr.StartFrom(x, progInbound[next()%len(progInbound)])
		o := or.StartFrom(x.HeaderValue())
		syncSpan := func(i int) {
			if i >= 0 && i < x.n {
				o.spans[i].StartMicros, o.spans[i].DurMicros = x.spans[i].StartMicros, x.spans[i].DurMicros
			}
		}
		var open []int
		for ops := next() % 64; ops > 0; ops-- {
			c, r := next(), next()
			name, outcome := progNames[c%len(progNames)], progOutcomes[r%len(progOutcomes)]
			// i is an open span, or any number from NoShard to past MaxSpans:
			// an index the trace may not have.
			i := r - 2
			if len(open) > 0 && r&1 == 0 {
				i = open[(r>>1)%len(open)]
			}
			d := time.Duration(next()) * 13 * time.Microsecond
			switch c % 8 {
			case 0:
				j := x.Begin(name)
				if k := o.Begin(name); k != j {
					t.Fatalf("trace %d: Begin returned %d and %d", traces, j, k)
				}
				syncSpan(j)
				open = append(open, j)
			case 1:
				x.End(i, outcome)
				o.End(i, outcome)
				syncSpan(i)
			case 2:
				open = append(open, x.BeginAt(name, d))
				o.BeginAt(name, d)
			case 3:
				x.EndAt(i, d, outcome)
				o.EndAt(i, d, outcome)
			case 4:
				x.Record(name, int64(d/time.Microsecond), int64(c), i, outcome)
				o.Record(name, int64(d/time.Microsecond), int64(c), i, outcome)
			case 5:
				x.Event(name, i, outcome)
				o.Event(name, i, outcome)
				syncSpan(x.n - 1)
			case 6:
				x.SetShard(i, c)
				o.SetShard(i, c)
			case 7: // rare, so that a full ring drops traces too
				switch c {
				case 247:
					x.Force()
					o.Force()
				case 255:
					x.Err()
					o.Err()
				}
			}
		}
		if x.n != o.n || x.Dropped != o.Dropped || !slices.Equal(x.spans[:x.n], o.spans[:o.n]) {
			t.Fatalf("trace %d: the recorders diverged before finishing", traces)
		}
		e := next()
		elapsed, errored := time.Duration(e)*37*time.Microsecond, e%5 == 0
		tr.FinishElapsed(x, elapsed, errored)
		or.FinishElapsed(o, elapsed, errored)
		for _, minMicros := range []int64{0, 37 * 100, math.MaxInt64} {
			for _, onlyErrors := range []bool{false, true} {
				for _, limit := range []int{0, 1, 5} {
					got, want := tr.Snapshot(minMicros, onlyErrors, limit), or.Snapshot(minMicros, onlyErrors, limit)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trace %d: Snapshot(%d, %v, %d):\n got %+v\nwant %+v", traces, minMicros, onlyErrors, limit, got, want)
					}
				}
			}
		}
	}
}

// TestTracerRetentionDifferential runs seeded random retention programs
// through the ring of copied records and the pointer ring it replaced. They
// run on one goroutine, where the race detector has nothing to find, so
// under -race two seeds run instead of twenty.
func TestTracerRetentionDifferential(t *testing.T) {
	seeds := int64(20)
	if raceEnabled {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 8<<10)
		rng.Read(prog)
		runRetentionProgram(t, prog)
	}
}

// FuzzTracerRetention runs arbitrary retention programs. Its seeds: no
// trace; one trace of every recorder call; a trace of 63 Begins, 15 of them
// dropped; and 17 one-span traces, wrapping the ring, then that 63-Begin one
// over the 1-span slot the wrap left oldest.
func FuzzTracerRetention(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 8, 0, 0, 0, 1, 0, 0, 2, 4, 9, 3, 3, 9, 4, 5, 7, 5, 9, 0, 6, 1, 0, 255, 0, 0, 247, 0, 0, 60})
	wide := append([]byte{2, 63}, make([]byte, 3*63)...)
	f.Add(append(wide, 10))
	var wrap []byte
	for i := 0; i < 17; i++ {
		wrap = append(wrap, 0, 1, 4, 6, byte(i), 5)
	}
	f.Add(append(append(wrap, wide...), 10))
	f.Fuzz(runRetentionProgram)
}

// TestTracerRetainedRecordIsACopy: a retained trace's recorder is its
// owner's again after Finish, and whatever the next request writes into it —
// here a full 48 spans — leaves the retained record as it was.
func TestTracerRetainedRecordIsACopy(t *testing.T) {
	tr := NewTracer(16, nil)
	x := tr.Start()
	x.Record("cache", 0, 5, NoShard, "hit")
	tr.FinishElapsed(x, 10*time.Microsecond, true)
	want := tr.Snapshot(0, false, 0)
	tr.StartFrom(x, nil) // the owner's next request
	for x.n < MaxSpans {
		x.Record("shard", 1, 2, 3, "error")
	}
	if got := tr.Snapshot(0, false, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("writing the restarted recorder changed the retained trace:\n got %+v\nwant %+v", got, want)
	}
}

// TestTracerSlotTakesLongerTrace: a slot that held a one-span trace takes a
// 48-span one whole, Dropped with it, and its neighbours keep theirs.
func TestTracerSlotTakesLongerTrace(t *testing.T) {
	tr := NewTracer(16, nil)
	for i := 0; i < 16; i++ {
		x := tr.Start()
		x.Record("cache", int64(i), 1, NoShard, "hit")
		tr.FinishElapsed(x, time.Millisecond, false)
	}
	oldest := tr.Snapshot(0, false, 0)[15].ID
	x := tr.Start()
	for i := 0; i < MaxSpans+2; i++ {
		x.Record("shard", int64(i), 1, i%3, "ok")
	}
	id := x.ID()
	tr.FinishElapsed(x, 2*time.Millisecond, true)
	v := tr.Snapshot(0, false, 0)
	if len(v) != 16 || v[0].ID != id || v[0].Dropped != 2 || len(v[0].Spans) != MaxSpans || v[0].TotalMicros != 2000 || !v[0].Err {
		t.Fatalf("newest retained trace: %d traces, %+v", len(v), v[0])
	}
	for i, sp := range v[0].Spans {
		if want := (SpanView{Name: "shard", StartMicros: int64(i), DurMicros: 1, Shard: i % 3, Outcome: "ok"}); sp != want {
			t.Fatalf("span %d = %+v, want %+v", i, sp, want)
		}
	}
	for k, r := range v[1:] {
		if r.ID == oldest || len(r.Spans) != 1 || r.Spans[0].StartMicros != int64(15-k) || r.Dropped != 0 {
			t.Fatalf("retained trace %d after the overwrite: %+v", k+1, r)
		}
	}
}

// TestTracerRetainedBytes gates the retention ring's memory as the clock-read
// and allocation tests gate its time: a 256-slot ring filled with 3-span
// traces, a direct GET's, may grow the live heap by at most 512 B per
// retained trace. Keeping whole recorders cost ~2,970 B each; a copied
// record with its share of the ID blocks costs ~250.
func TestTracerRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	const capacity = 256
	tr := NewTracer(capacity, nil)
	// Two collections: the first moves every pool's recorders to its victim
	// cache, the second frees them, so neither reading counts another
	// test's pools.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < capacity; i++ {
		x := tr.Start()
		x.Record("cache", 0, 3, NoShard, "miss")
		x.Record("descent", 3, 20, NoShard, "ok")
		x.Record("encode", 23, 2, NoShard, "ok")
		tr.FinishElapsed(x, 30*time.Microsecond, false)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if v := tr.Snapshot(0, false, 0); len(v) != capacity || len(v[0].Spans) != 3 {
		t.Fatalf("retained %d traces", len(v))
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / capacity
	t.Logf("%d B of live heap per retained trace", per)
	if per > 512 {
		t.Fatalf("a retained 3-span trace holds %d B of live heap, want <= 512", per)
	}
}
