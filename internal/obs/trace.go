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

// Now is the request path's clock: one monotonic read, and no wall-clock one.
// The time.Time carries the reading, so Sub, Before, context.WithDeadline and
// net.Conn deadlines treat it as they treat time.Now's.
func Now() time.Time { return epoch.Add(time.Since(epoch)) }

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

// Trace is a fixed-size span recorder for one request (or one ingest step /
// ramp transition), owned by its caller and reset by Tracer.StartFrom. All
// mutating methods MUST be called from a single goroutine — the request
// goroutine — which is what makes the recorder lock-free; concurrent shard
// attempts report their outcomes back over the request goroutine's result
// channel and are recorded there. The trace ID is not part of the recorder:
// it is carved from an immutable block (see idBlock), so the ID string and
// its header slice stay valid — and unchanged — after the trace has been
// finished and its recorder restarted.
type Trace struct {
	start time.Duration // since epoch
	// hv is the one-element X-Trace-Id header value: a slot of an idBlock,
	// or the inbound request's own header slice (StartFrom). It is never
	// written through.
	hv []string

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
// propagated value later than that), so an ID that lived in the recorder
// could be rewritten by the next request's StartFrom while the previous
// response was still being written. Carving slots from a block costs one
// allocation per idBlockLen traces; the block is freed once no header
// references it.
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

// Elapsed reads the monotonic clock and returns the time since the trace
// began.
func (tr *Trace) Elapsed() time.Duration { return time.Since(epoch) - tr.start }

// Started returns the instant the trace began, as Now would have returned it
// then. It reads no clock: a caller whose first step follows the start by
// less than a span's resolution opens on it instead of reading again.
func (tr *Trace) Started() time.Time { return epoch.Add(tr.start) }

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

// Record appends a fully-formed closed span. It is the retroactive twin of
// Begin/End, used when a stage's name or outcome is only known after the
// timed interval completes.
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

// Chain appends a closed span from the furthest close of the spans before it
// (0 for none; zero-length ones, such as events, do not count) to endMicros:
// chained spans partition the request exactly, after overlapping ones too.
func (tr *Trace) Chain(name string, endMicros int64, outcome string) {
	var from int64
	for i := range tr.spans[:tr.n] {
		if sp := &tr.spans[i]; sp.DurMicros > 0 {
			from = max(from, sp.StartMicros+sp.DurMicros)
		}
	}
	tr.Record(name, from, endMicros-from, NoShard, outcome)
}

// Outcome labels a request's closing span: "error" if it errored, else "ok".
func Outcome(errored bool) string {
	if errored {
		return "error"
	}
	return "ok"
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

// retained is a finished trace as the retention ring holds it: its ID in
// bytes of its own, so it pins no idBlock, and a copy of the spans it
// recorded in a slice the slot reuses, not the recorder it ran on.
type retained struct {
	id      [traceIDLen]byte
	total   int64
	err     bool
	dropped int
	spans   []Span
}

// Tracer starts Traces and tail-samples completed ones into a fixed
// retention ring. Retention keeps every errored or forced trace and every
// trace slower than the cached p99 of the slow-source histogram
// (re-read by FinishElapsed at most every refreshEvery, so the hot path never
// scans buckets); while the ring is not yet full every trace is retained, so
// fresh processes are immediately inspectable.
type Tracer struct {
	slow *Histogram

	seq       atomic.Uint64 // trace sequence numbers, reserved a block at a time
	seed      uint64
	ids       atomic.Pointer[idBlock] // the block IDs are being carved from
	thresh    atomic.Int64
	refreshAt atomic.Int64 // offset from epoch (ns) at which a finish re-reads thresh

	mu   sync.Mutex
	ring []retained
	next int
	size int
	// full is set once the ring has filled (it never empties again): from
	// then on a trace that is neither errored, forced nor slow is certain
	// not to be retained, and Finish returns without taking mu.
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
		ring: make([]retained, capacity),
		// IDs are mix64(seed + n): seeded by the clock alone, two tracers built
		// δ ns apart would replay each other's IDs δ traces later. Mixing the
		// clock with the tracer's ordinal puts the sequences of one process's
		// tracers — a router and its loopback shards — a 64-bit-random
		// distance apart.
		seed: mix64(uint64(time.Now().UnixNano()) ^ mix64(tracers.Add(1))),
	}
	t.thresh.Store(math.MaxInt64)
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

// Start returns a new Trace with a fresh ID, for a caller that keeps no
// recorder of its own: it allocates the recorder StartFrom would reset.
func (t *Tracer) Start() *Trace {
	tr := new(Trace)
	t.StartFrom(tr, nil)
	return tr
}

// StartFrom resets the caller's recorder tr for a trace beginning now, with
// the inbound X-Trace-Id header's ID if it is one (validID), so a shard's
// trace shares the router's ID, and a freshly carved one otherwise. An
// adopted ID is the caller's own slice, the way X-Request-Id is echoed: it
// must not be rewritten while it can be read. A trace not worth keeping is
// simply not handed to Finish.
func (t *Tracer) StartFrom(tr *Trace, inbound []string) {
	tr.start = time.Since(epoch)
	tr.n = 0
	tr.Dropped = 0
	tr.total = 0
	tr.err = false
	tr.forced = false
	if len(inbound) > 0 && validID(inbound[0]) {
		tr.hv = inbound[:1]
	} else {
		tr.hv = t.nextID()
	}
}

// validID reports whether s is a trace ID as this package writes them:
// traceIDLen lowercase hex digits. It does not branch per byte: whether a
// random ID's next digit is a letter is a coin flip to a branch predictor.
func validID(s string) bool {
	if len(s) != traceIDLen {
		return false
	}
	var bad uint32 // bit 31 is set in c-'0'-10 for a digit, in c-'a'-6 for a-f
	for i := 0; i < traceIDLen; i++ {
		bad |= ^((uint32(s[i]-'0') - 10) | (uint32(s[i]-'a') - 6))
	}
	return bad>>31 == 0
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
		// Losing the swap wastes one block and its sequence range; IDs stay unique.
		t.ids.CompareAndSwap(blk, &idBlock{base: t.seq.Add(idBlockLen)})
	}
}

// refreshEvery is how often, in trace time, the slow threshold is re-read.
const refreshEvery = time.Millisecond

// Finish stamps the trace's total duration, applies the tail-sampling
// decision and copies a retained trace into the ring over its oldest record.
// The ring keeps no reference to tr: its owner may start it again at once.
func (t *Tracer) Finish(tr *Trace, errored bool) {
	t.FinishElapsed(tr, tr.Elapsed(), errored)
}

// FinishElapsed is Finish for a caller that has already read the clock at
// the end of the request: elapsed is the time since the trace began. A trace
// ending refreshEvery past the last refresh (its own end offset: no clock
// read, and no ID need be carved) re-reads the slow threshold, after it has
// been judged by the old one: its own sample does not raise the bar on it.
func (t *Tracer) FinishElapsed(tr *Trace, elapsed time.Duration, errored bool) {
	tr.total = elapsed.Microseconds()
	if errored {
		tr.err = true
	}
	keep := tr.err || tr.forced || tr.total >= t.thresh.Load()
	end, at := int64(tr.start+elapsed), t.refreshAt.Load()
	if t.slow != nil && end >= at && t.refreshAt.CompareAndSwap(at, end+int64(refreshEvery)) {
		if p99 := t.slow.Quantile(0.99); p99 > 0 {
			t.thresh.Store(p99)
		}
	}
	if !keep && t.full.Load() {
		return
	}
	t.mu.Lock()
	if keep || t.size < len(t.ring) {
		r := &t.ring[t.next]
		copy(r.id[:], tr.hv[0])
		r.total, r.err, r.dropped = tr.total, tr.err, tr.Dropped
		r.spans = append(r.spans[:0], tr.spans[:tr.n]...)
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
		if t.size < len(t.ring) {
			t.size++
			t.full.Store(t.size == len(t.ring))
		}
	}
	t.mu.Unlock()
}

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
// no storage with the ring slot it was copied from.
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
		r := &t.ring[idx]
		if r.total < minMicros || (onlyErrors && !r.err) {
			continue
		}
		tv := TraceView{
			ID:          string(r.id[:]),
			TotalMicros: r.total,
			Err:         r.err,
			Dropped:     r.dropped,
			Spans:       make([]SpanView, len(r.spans)),
		}
		for i := range r.spans {
			sp := &r.spans[i]
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
