package obs

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// MaxSpans is the fixed per-trace span capacity. A hedged, failed-over
// request across an 8-replica preference list plus per-stage serving spans
// fits comfortably; once full, further Begin calls are counted in Dropped
// and otherwise ignored, never reallocated.
const MaxSpans = 48

// NoShard marks a span that is not attributed to any shard or step index.
const NoShard = -1

// traceIDLen is the length of the hex trace ID carried in X-Trace-Id.
const traceIDLen = 16

// Span is one timed operation inside a Trace. All fields are offsets and
// static strings so a retained trace holds no references into request
// state.
type Span struct {
	// Name is the static stage name ("cache", "descent", "shard", ...).
	Name string
	// StartMicros is the span start as microseconds since the trace start.
	StartMicros int64
	// DurMicros is the span duration in microseconds; zero for point events
	// and for spans still open when the trace finished.
	DurMicros int64
	// Shard is the shard or step index the span is attributed to, or
	// NoShard.
	Shard int
	// Outcome is the static result label ("ok", "error", "hedge-won",
	// "breaker-skip", "cancelled", ...); empty while the span is open.
	Outcome string
}

// Trace is a pooled, fixed-size span recorder for one request (or one
// ingest step / ramp transition). All mutating methods MUST be called from
// a single goroutine — the request goroutine — which is what makes the
// recorder lock-free; concurrent shard attempts report their outcomes back
// over the request goroutine's result channel and are recorded there. The
// trace ID lives in a pool-owned buffer whose header slice is built once,
// so propagating it via HTTP headers allocates nothing.
type Trace struct {
	tracer *Tracer
	start  time.Time
	// idBuf backs the trace ID; hv aliases it via unsafe.String, built once
	// when the Trace is allocated. Regenerating the ID rewrites idBuf in
	// place, so callers must treat HeaderValue/ID as valid only until the
	// trace is recycled.
	idBuf [traceIDLen]byte
	hv    [1]string

	spans [MaxSpans]Span
	n     int
	// Dropped counts Begin calls rejected because the span array was full.
	Dropped int

	total  int64
	err    bool
	forced bool
}

// newTrace allocates a Trace with its aliased header value wired up.
func newTrace(t *Tracer) *Trace {
	tr := &Trace{tracer: t}
	tr.hv[0] = unsafe.String(&tr.idBuf[0], traceIDLen)
	return tr
}

// ID returns the 16-hex-character trace ID. The string aliases pooled
// storage: it is stable until the trace is finished or abandoned.
func (tr *Trace) ID() string { return tr.hv[0] }

// HeaderValue returns a single-element header value slice carrying the
// trace ID, suitable for direct assignment into an http.Header without
// allocating. The same aliasing caveat as ID applies.
func (tr *Trace) HeaderValue() []string { return tr.hv[:] }

// SetID adopts an inbound trace ID (from X-Trace-Id) by copying it into
// the pooled buffer. IDs that are not exactly 16 bytes are ignored and the
// generated ID is kept.
func (tr *Trace) SetID(id string) {
	if len(id) == traceIDLen {
		copy(tr.idBuf[:], id)
	}
}

// Start returns the wall-clock instant the trace began.
func (tr *Trace) Start() time.Time { return tr.start }

// Begin opens a span and returns its index for the matching End call.
// It returns NoShard when the span array is full; End and SetShard accept
// that sentinel and do nothing.
func (tr *Trace) Begin(name string) int {
	if tr.n >= MaxSpans {
		tr.Dropped++
		return NoShard
	}
	i := tr.n
	tr.n++
	tr.spans[i] = Span{
		Name:        name,
		StartMicros: time.Since(tr.start).Microseconds(),
		Shard:       NoShard,
	}
	return i
}

// SetShard attributes the span at index i to a shard (or step) index.
func (tr *Trace) SetShard(i, shard int) {
	if i >= 0 && i < tr.n {
		tr.spans[i].Shard = shard
	}
}

// End closes the span at index i with a static outcome label.
func (tr *Trace) End(i int, outcome string) {
	if i < 0 || i >= tr.n {
		return
	}
	sp := &tr.spans[i]
	sp.DurMicros = time.Since(tr.start).Microseconds() - sp.StartMicros
	sp.Outcome = outcome
}

// Outcome returns the recorded outcome of span i, or "" if out of range.
// It lets the request goroutine check whether an attempt span was already
// closed without re-deriving attempt state.
func (tr *Trace) Outcome(i int) string {
	if i < 0 || i >= tr.n {
		return ""
	}
	return tr.spans[i].Outcome
}

// Record appends a fully-formed closed span. It is the retroactive twin of
// Begin/End, used when a stage's name or outcome is only known after the
// timed interval completes (cache hit vs predict-descent miss share one
// measurement).
func (tr *Trace) Record(name string, startMicros, durMicros int64, shard int, outcome string) {
	if tr.n >= MaxSpans {
		tr.Dropped++
		return
	}
	tr.spans[tr.n] = Span{
		Name:        name,
		StartMicros: startMicros,
		DurMicros:   durMicros,
		Shard:       shard,
		Outcome:     outcome,
	}
	tr.n++
}

// Event records a closed zero-duration span (a point annotation such as a
// breaker skip) attributed to shard with the given outcome.
func (tr *Trace) Event(name string, shard int, outcome string) {
	i := tr.Begin(name)
	if i >= 0 {
		tr.spans[i].Shard = shard
		tr.spans[i].Outcome = outcome
	}
}

// Force marks the trace for retention regardless of latency or error
// status (used for ingest steps and ramp transitions, which are rare and
// always interesting).
func (tr *Trace) Force() { tr.forced = true }

// Err marks the trace as errored; Finish also accepts the flag directly.
func (tr *Trace) Err() { tr.err = true }

// Tracer hands out pooled Traces and tail-samples completed ones into a
// fixed retention ring. Retention keeps every errored or forced trace and
// every trace slower than the cached p99 of the slow-source histogram
// (refreshed every 256 finishes so the hot path never scans buckets);
// while the ring is not yet full every trace is retained, so fresh
// processes are immediately inspectable.
type Tracer struct {
	pool sync.Pool
	slow *Histogram

	seq      atomic.Uint64
	seed     uint64
	finishes atomic.Uint64
	thresh   atomic.Int64

	mu   sync.Mutex
	ring []*Trace
	next int
	size int
}

// NewTracer returns a Tracer retaining up to capacity completed traces
// (clamped to at least 16). slow, if non-nil, is the histogram whose p99
// defines "slow" for tail sampling — typically the overall request-latency
// histogram.
func NewTracer(capacity int, slow *Histogram) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	t := &Tracer{
		slow: slow,
		ring: make([]*Trace, capacity),
		seed: uint64(time.Now().UnixNano()),
	}
	t.thresh.Store(math.MaxInt64)
	t.pool.New = func() any { return newTrace(t) }
	return t
}

// hexDigits encodes trace IDs.
const hexDigits = "0123456789abcdef"

// mix64 is a splitmix64-style finalizer over the sequence counter; IDs are
// unique per tracer and well spread without math/rand or allocation.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Start returns a reset Trace with a fresh ID. The caller must eventually
// hand it back via Finish or Abandon.
func (t *Tracer) Start() *Trace {
	tr := t.pool.Get().(*Trace)
	tr.start = time.Now()
	tr.n = 0
	tr.Dropped = 0
	tr.total = 0
	tr.err = false
	tr.forced = false
	id := mix64(t.seed + t.seq.Add(1))
	for i := 0; i < traceIDLen; i++ {
		tr.idBuf[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return tr
}

// Finish stamps the trace's total duration, applies the tail-sampling
// decision and either retains the trace in the ring (recycling whatever it
// evicts) or returns it to the pool. The caller must not touch tr
// afterwards.
func (t *Tracer) Finish(tr *Trace, errored bool) {
	tr.total = time.Since(tr.start).Microseconds()
	if errored {
		tr.err = true
	}
	if t.slow != nil && t.finishes.Add(1)&255 == 0 {
		if p99 := t.slow.Quantile(0.99); p99 > 0 {
			t.thresh.Store(p99)
		}
	}
	t.mu.Lock()
	retain := tr.err || tr.forced || tr.total >= t.thresh.Load() || t.size < len(t.ring)
	if !retain {
		t.mu.Unlock()
		t.pool.Put(tr)
		return
	}
	evicted := t.ring[t.next]
	t.ring[t.next] = tr
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	if t.size < len(t.ring) {
		t.size++
	}
	t.mu.Unlock()
	if evicted != nil {
		t.pool.Put(evicted)
	}
}

// Abandon returns a started trace to the pool without retaining it (an
// ingest step that read nothing, for example). The caller must not touch
// tr afterwards.
func (t *Tracer) Abandon(tr *Trace) { t.pool.Put(tr) }

// SlowThresholdMicros returns the current tail-sampling latency threshold
// (math.MaxInt64 until the slow-source histogram has enough data).
func (t *Tracer) SlowThresholdMicros() int64 { return t.thresh.Load() }

// SpanView is a copied, immutable span for rendering a retained trace.
type SpanView struct {
	// Name is the stage name.
	Name string `json:"name"`
	// StartMicros is the start offset from the trace start in microseconds.
	StartMicros int64 `json:"start_us"`
	// DurMicros is the span duration in microseconds.
	DurMicros int64 `json:"dur_us"`
	// Shard is the attributed shard/step index, or NoShard.
	Shard int `json:"shard"`
	// Outcome is the span's result label.
	Outcome string `json:"outcome"`
}

// TraceView is a copied, immutable retained trace for rendering; it shares
// no storage with the pooled Trace it was copied from.
type TraceView struct {
	// ID is the 16-hex-character trace ID.
	ID string `json:"id"`
	// TotalMicros is the end-to-end duration in microseconds.
	TotalMicros int64 `json:"total_us"`
	// Err reports whether the request errored or panicked.
	Err bool `json:"error"`
	// Dropped counts spans rejected because the recorder was full.
	Dropped int `json:"dropped,omitempty"`
	// Spans holds the recorded spans in Begin order.
	Spans []SpanView `json:"spans"`
}

// Snapshot copies retained traces, newest first, filtered to those with
// TotalMicros >= minMicros and (when onlyErrors is set) an error flag. At
// most limit traces are returned; limit <= 0 means no cap.
func (t *Tracer) Snapshot(minMicros int64, onlyErrors bool, limit int) []TraceView {
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
			// Copy the ID out of pooled storage: string(...) of the byte
			// array makes an owned copy.
			ID:          string(tr.idBuf[:]),
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

// traceKey keys the context value carrying a *Trace across layer
// boundaries (router to transport).
type traceKey struct{}

// ContextWithTrace returns a context carrying tr so transports can
// propagate its ID to downstream shards. This is the one deliberate
// allocation on the fan-out path; the shard-local serving path never calls
// it.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFromContext returns the trace carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// headerKey keys the context value carrying the X-Trace-Id header value to
// propagate (see ContextWithTraceHeader).
type headerKey struct{}

// ContextWithTraceHeader returns a context carrying hv, a single-element
// X-Trace-Id header value, for transports to propagate. hv may be
// Trace.HeaderValue itself only when everything that reads it is done before
// the trace is finished: the router's inline GET attempts, which all return
// before the request does. Hedge losers and drained failover attempts can
// still be inside a transport after the originating trace has been finished
// and recycled, so a request that races attempts must pass an owned copy of
// the ID (strings.Clone) instead.
func ContextWithTraceHeader(ctx context.Context, hv []string) context.Context {
	return context.WithValue(ctx, headerKey{}, hv)
}

// TraceHeaderFromContext returns the propagated X-Trace-Id header value, or
// nil when the context carries none.
func TraceHeaderFromContext(ctx context.Context) []string {
	hv, _ := ctx.Value(headerKey{}).([]string)
	return hv
}
