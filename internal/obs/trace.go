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

// epoch is the process's time zero. A trace keeps its start as an offset from
// it, so starting a trace and every later "how long since?" is one monotonic
// clock read (time.Since of a time that carries a monotonic reading) where
// time.Now would read the wall clock as well — a wall time nothing renders.
var epoch = time.Now()

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
// trace ID is not part of the pooled storage: it is carved from an immutable
// block (see idBlock), so the ID string and its header slice stay valid —
// and unchanged — after the trace has been finished and recycled.
type Trace struct {
	start time.Duration // since epoch
	// hv is the one-element X-Trace-Id header value: a slot of an idBlock,
	// or the inbound request's own header slice after Adopt. It is never
	// written through.
	hv []string
	// kept is the ID of a retained trace, copied out of hv on retention so a
	// trace sitting in the ring does not pin a whole block.
	kept [traceIDLen]byte

	spans [MaxSpans]Span
	n     int
	// Dropped counts Begin calls rejected because the span array was full.
	Dropped int

	total  int64
	err    bool
	forced bool
}

// idBlockLen is the number of trace IDs carved from one idBlock: 255 slots
// of 32 bytes plus the block's header fill the 8 KiB allocation size class.
const idBlockLen = 255

// idBlock is a batch of trace IDs together with the header values that carry
// them. A slot is written exactly once, by the Start that claimed it, before
// anything else can see it, and never again: net/http writes response
// headers after the handler has returned (and a hedge loser may hold the
// propagated value later than that), so an ID that lived in the pooled Trace
// could be rewritten by the next request's Start while the previous response
// was still being written. Carving slots from a block costs one allocation
// per idBlockLen traces; the block is freed once no header references it.
type idBlock struct {
	base uint64        // sequence number of slot 0
	next atomic.Uint32 // slots handed out; runs past idBlockLen once the block is spent
	ids  [idBlockLen][traceIDLen]byte
	hv   [idBlockLen][1]string // hv[i][0] aliases ids[i]
}

// ID returns the 16-hex-character trace ID. The string is immutable: it
// stays valid after the trace is finished.
func (tr *Trace) ID() string { return tr.hv[0] }

// HeaderValue returns a single-element header value slice carrying the
// trace ID, suitable for direct assignment into an http.Header (or for
// propagation through a TraceHeaderCarrier context) without allocating. Like
// ID it stays valid, and unchanged, after the trace is finished; callers must
// not write through it.
func (tr *Trace) HeaderValue() []string { return tr.hv }

// Adopt takes over an inbound trace ID — the request's X-Trace-Id header
// values — so a shard's trace shares the router's ID. The trace keeps the
// caller's slice instead of copying it, the way X-Request-Id is echoed: the
// slice must not be rewritten while the ID can still be read, which holds
// for a request's header. Anything but a leading 16-byte ID is ignored and
// the generated ID is kept.
func (tr *Trace) Adopt(hv []string) {
	if len(hv) > 0 && len(hv[0]) == traceIDLen {
		tr.hv = hv[:1]
	}
}

// Elapsed reads the monotonic clock and returns the time since the trace
// began.
func (tr *Trace) Elapsed() time.Duration { return time.Since(epoch) - tr.start }

// Offset converts an instant the caller read from the clock itself (a
// breaker's or a deadline's time.Time) to the time since the trace began. It
// reads no clock.
func (tr *Trace) Offset(t time.Time) time.Duration { return t.Sub(epoch) - tr.start }

// Begin opens a span and returns its index for the matching End call.
// It returns NoShard when the span array is full; End and SetShard accept
// that sentinel and do nothing.
func (tr *Trace) Begin(name string) int { return tr.BeginAt(name, tr.Elapsed()) }

// BeginAt is Begin for a caller that has already read the clock: elapsed is
// the time since the trace began (Elapsed, Offset) at which the span opens. A
// caller that feeds one clock read to several spans (one attempt's end, the
// next one's start) gets spans that abut exactly.
func (tr *Trace) BeginAt(name string, elapsed time.Duration) int {
	if tr.n >= MaxSpans {
		tr.Dropped++
		return NoShard
	}
	i := tr.n
	tr.n++
	tr.spans[i] = Span{
		Name:        name,
		StartMicros: elapsed.Microseconds(),
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
func (tr *Trace) End(i int, outcome string) { tr.EndAt(i, tr.Elapsed(), outcome) }

// EndAt is End for a caller that has already read the clock: elapsed is the
// time since the trace began at which the span closes.
func (tr *Trace) EndAt(i int, elapsed time.Duration, outcome string) {
	if i < 0 || i >= tr.n {
		return
	}
	sp := &tr.spans[i]
	sp.DurMicros = elapsed.Microseconds() - sp.StartMicros
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
// (refreshed when an ID block is spent, every idBlockLen traces, so the hot
// path never scans buckets and counts nothing of its own); while the ring is
// not yet full every trace is retained, so fresh processes are immediately
// inspectable.
type Tracer struct {
	pool sync.Pool
	slow *Histogram

	seq    atomic.Uint64 // trace sequence numbers, reserved a block at a time
	seed   uint64
	ids    atomic.Pointer[idBlock] // the block IDs are being carved from
	thresh atomic.Int64

	mu   sync.Mutex
	ring []*Trace
	next int
	size int
	// full is set once the ring has filled (it never empties again): from
	// then on a trace that is neither errored, forced nor slow is certain
	// not to be retained, and Finish recycles it without taking mu.
	full atomic.Bool
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
		// IDs are mix64(seed + n): seeded by the clock alone, two tracers built
		// δ ns apart would replay each other's IDs δ traces later. Mixing the
		// clock with the tracer's ordinal puts the sequences of one process's
		// tracers — a router and its loopback shards — a 64-bit-random
		// distance apart.
		seed: mix64(uint64(time.Now().UnixNano()) ^ mix64(tracers.Add(1))),
	}
	t.thresh.Store(math.MaxInt64)
	t.pool.New = func() any { return new(Trace) }
	return t
}

// tracers counts the tracers this process has built (see NewTracer's seed).
var tracers atomic.Uint64

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
	tr.start = time.Since(epoch)
	tr.n = 0
	tr.Dropped = 0
	tr.total = 0
	tr.err = false
	tr.forced = false
	tr.hv = t.nextID()
	return tr
}

// nextID carves the next trace ID out of the current block and returns its
// header value, starting a new block when this one is spent.
func (t *Tracer) nextID() []string {
	for {
		blk := t.ids.Load()
		if blk != nil {
			if i := blk.next.Add(1) - 1; i < idBlockLen {
				id := mix64(t.seed + blk.base + uint64(i))
				buf := &blk.ids[i]
				for k := range buf {
					buf[k] = hexDigits[id&0xf]
					id >>= 4
				}
				blk.hv[i][0] = unsafe.String(&buf[0], traceIDLen)
				return blk.hv[i][:]
			}
		}
		// Losing the swap wastes one block and its sequence range; IDs stay
		// unique. Winning it is the tracer's one periodic event: the slow
		// threshold is re-read here.
		if t.ids.CompareAndSwap(blk, &idBlock{base: t.seq.Add(idBlockLen)}) && t.slow != nil {
			if p99 := t.slow.Quantile(0.99); p99 > 0 {
				t.thresh.Store(p99)
			}
		}
	}
}

// Finish stamps the trace's total duration, applies the tail-sampling
// decision and either retains the trace in the ring (recycling whatever it
// evicts) or returns it to the pool. The caller must not touch tr
// afterwards.
func (t *Tracer) Finish(tr *Trace, errored bool) {
	t.FinishElapsed(tr, tr.Elapsed(), errored)
}

// FinishElapsed is Finish for a caller that has already read the clock at
// the end of the request: elapsed is the time since the trace began.
func (t *Tracer) FinishElapsed(tr *Trace, elapsed time.Duration, errored bool) {
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

// TraceHeaderKey is the context key under which the X-Trace-Id header value
// to propagate is found. It is exported for contexts that answer it from a
// field of their own (see TraceHeaderCarrier): their Value must still answer
// it, or a stdlib context derived from one would lose the header.
type TraceHeaderKey struct{}

// TraceHeaderCarrier is a context that holds the single-element X-Trace-Id
// header value to propagate as a plain field. Reading it through the method
// boxes nothing; the carrier's Value answers TraceHeaderKey with the same
// slice for contexts derived from it.
type TraceHeaderCarrier interface {
	TraceHeader() []string
}

// TraceHeaderFromContext returns the propagated X-Trace-Id header value, or
// nil when the context carries none, as a nil context does. Trace.HeaderValue
// is immutable, so a transport may hold what it gets here even when its
// attempt (a hedge loser) outlives the request and its trace.
func TraceHeaderFromContext(ctx context.Context) []string {
	if ctx == nil {
		return nil
	}
	if c, ok := ctx.(TraceHeaderCarrier); ok {
		return c.TraceHeader()
	}
	hv, _ := ctx.Value(TraceHeaderKey{}).([]string)
	return hv
}
