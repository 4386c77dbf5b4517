package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonspan"
	"repro/internal/obs"
)

// Transport carries a routed request to a shard replica. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Exchange sends method + path (query string included) to the given
	// shard. body may be nil (GETs). The response body is appended to
	// respBuf (which may be a recycled pooled buffer, possibly nil) and
	// returned; the caller owns it and the transport must not retain or
	// reuse it after returning.
	//
	// ctx carries the attempt's terms as values; it is not a timer:
	//   - ctx.Deadline() is the attempt's budget, min(the request's deadline,
	//     start + RouterOptions.ShardTimeout), or none. Nothing fires when it
	//     passes: a transport that can block arms its own timer against it
	//     (context.WithDeadline(ctx, dl) does) and answers
	//     context.DeadlineExceeded; one that cannot block ignores it.
	//   - ctx.Done() closes when the client goes away or, for a hedged
	//     attempt, when it has lost the race — and not on the deadline. A
	//     context done on entry means the exchange must not run.
	//   - obs.TraceHeaderFromContext(ctx) is the X-Trace-Id header value to
	//     propagate, immutable, or nil.
	// The router allocates ctx per attempt and never recycles it, so the
	// transport, and any context it derives from it, may hold it for as long
	// as it needs. A caller outside the router may pass any context, such as
	// context.Background(): no deadline, no header.
	Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (status int, resp []byte, err error)
	// Shards returns the number of replicas the transport can reach.
	Shards() int
}

// LoopbackTransport routes to in-process shard handlers — N serving handlers
// (typically sharing one mmapped model) behind one router in a single
// process. It is the zero-infrastructure deployment of the ring: the routing
// behaviour, stickiness and cache partitioning are identical to the HTTP
// transport, so a single process can validate a sharding plan before it is
// distributed.
type LoopbackTransport struct {
	handlers []http.Handler
	scratch  sync.Pool // *loopbackScratch
}

// NewLoopbackTransport builds a loopback transport over in-process handlers,
// one per shard.
func NewLoopbackTransport(handlers ...http.Handler) *LoopbackTransport {
	return &LoopbackTransport{handlers: handlers}
}

// Shards implements Transport.
func (t *LoopbackTransport) Shards() int { return len(t.handlers) }

// loopbackScratch is one pooled synthetic request/response pair: the
// http.Request, its URL, the body reader and the response recorder are all
// built once and reset per exchange, so the steady-state loopback fan-out
// allocates nothing per sub-request.
type loopbackScratch struct {
	req  http.Request
	url  url.URL
	rd   bytes.Reader
	resp bufferedResponse
}

// nopCloseReader adapts the scratch body reader to http.Request.Body.
type nopCloseReader struct{ *bytes.Reader }

func (nopCloseReader) Close() error { return nil }

// Exchange implements Transport by synthesising an in-process request from a
// pooled scratch. Loopback calls run the handler synchronously in the
// calling goroutine and cannot block: the deadline is not looked at
// (in-process handlers are trusted not to hang), but a ctx already cancelled
// on entry short-circuits so hedge losers and departed clients never run.
func (t *LoopbackTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, respBuf, err
		}
	}
	s, _ := t.scratch.Get().(*loopbackScratch)
	if s == nil {
		s = &loopbackScratch{}
		s.req.Proto = "HTTP/1.1"
		s.req.ProtoMajor, s.req.ProtoMinor = 1, 1
		s.req.Header = http.Header{"Content-Type": {"application/json"}}
		s.req.URL = &s.url
		s.req.Body = nopCloseReader{&s.rd}
		s.resp.header = make(http.Header, 4)
	}
	s.req.Method = method
	s.url.Path = path
	s.url.RawQuery = ""
	if i := strings.IndexByte(path, '?'); i >= 0 {
		s.url.Path, s.url.RawQuery = path[:i], path[i+1:]
	}
	s.rd.Reset(body)
	s.req.ContentLength = int64(len(body))
	s.resp.code = 0
	s.resp.body = respBuf
	clear(s.resp.header)
	// Propagate the router's trace ID so the shard's own trace adopts it and
	// a request can be followed across layers. The scratch header is pooled:
	// the value must be removed again before the scratch is recycled, or a
	// later un-traced exchange would replay a stale ID.
	if hv := obs.TraceHeaderFromContext(ctx); hv != nil {
		s.req.Header["X-Trace-Id"] = hv
	}
	t.handlers[shard].ServeHTTP(&s.resp, &s.req)
	delete(s.req.Header, "X-Trace-Id")
	status, out := s.resp.status(), s.resp.body
	s.resp.body = nil // caller owns the buffer now
	t.scratch.Put(s)
	return status, out, nil
}

// bufferedResponse is a minimal in-memory http.ResponseWriter for loopback
// exchanges; the body accumulates in a caller-owned byte slice.
type bufferedResponse struct {
	code   int
	header http.Header
	body   []byte
}

func (r *bufferedResponse) Header() http.Header { return r.header }

func (r *bufferedResponse) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *bufferedResponse) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *bufferedResponse) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// HTTPTransport routes to shard replicas over HTTP — the distributed
// deployment, where each shard is a `cmd/serve -role shard` process.
type HTTPTransport struct {
	bases  []*url.URL
	client *http.Client
}

// DefaultTransportTimeout bounds a whole shard exchange (dial, request,
// response read) when NewHTTPTransport builds its own client. Per-attempt
// deadlines from RouterOptions.ShardTimeout cut it shorter via ctx.
const DefaultTransportTimeout = 5 * time.Second

// defaultHTTPClient is the client NewHTTPTransport uses when the caller
// passes nil: bounded dial and response-header timeouts and a sized idle
// connection pool, so a black-holed shard ties up a connection attempt for
// seconds, not forever, and the fan-out reuses connections instead of
// re-dialing per sub-batch.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Timeout: DefaultTransportTimeout,
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   2 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: DefaultTransportTimeout,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   64,
			IdleConnTimeout:       90 * time.Second,
		},
	}
}

// NewHTTPTransport builds an HTTP transport over shard base URLs (e.g.
// "http://shard-0:8080"). client nil selects a default client with sane
// dial/response timeouts and a sized connection pool (see
// DefaultTransportTimeout); production routers may still pass their own.
func NewHTTPTransport(bases []string, client *http.Client) (*HTTPTransport, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("fleet: no shard URLs")
	}
	if client == nil {
		client = defaultHTTPClient()
	}
	t := &HTTPTransport{client: client}
	for _, b := range bases {
		u, err := url.Parse(strings.TrimSuffix(b, "/"))
		if err != nil {
			return nil, fmt.Errorf("fleet: shard URL %q: %w", b, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: shard URL %q needs a scheme and host", b)
		}
		t.bases = append(t.bases, u)
	}
	return t, nil
}

// Shards implements Transport.
func (t *HTTPTransport) Shards() int { return len(t.bases) }

// Exchange implements Transport with one HTTP request to the shard, reading
// the response into the caller's recycled buffer. A socket can block, so the
// attempt's deadline is armed here: the request runs under a
// context.WithDeadline of ctx, which ends it — dial, write, header wait or
// body read — with context.DeadlineExceeded.
func (t *HTTPTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hv := obs.TraceHeaderFromContext(ctx) // before deriving: the child is no carrier, and Value would box the slice
	if dl, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.bases[shard].String()+path, rd)
	if err != nil {
		return 0, respBuf, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hv != nil {
		req.Header["X-Trace-Id"] = hv
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, respBuf, err
	}
	defer resp.Body.Close()
	raw, err := AppendReadAll(respBuf, resp.Body)
	if err != nil {
		return 0, raw, err
	}
	return resp.StatusCode, raw, nil
}

// AppendReadAll reads rd to EOF, appending to buf — io.ReadAll with a
// recycled destination.
func AppendReadAll(buf []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// MaxReplicas caps RouterOptions.Replicas: preference lists and per-item
// attempt masks are fixed-width 8 entries, far beyond any useful replication
// factor for this workload.
const MaxReplicas = 8

// RouterOptions is the ShardRouter's failure policy: how many replicas each
// key range maps to and how the router walks them when attempts fail.
type RouterOptions struct {
	// Replicas is R, the preference-list length per key range: each context
	// maps to an ordered list of R distinct shards (Ring.LookupN) and the
	// router walks it on failure. <= 1 disables replication (the pre-R
	// behaviour); capped at min(MaxReplicas, ring size).
	Replicas int
	// ShardTimeout is the per-attempt deadline. 0 leaves attempts bounded
	// only by the transport's own client timeout.
	ShardTimeout time.Duration
	// HedgeAfter controls hedged GET requests: after this delay without an
	// answer from the primary, the next replica is fired too and the first
	// success wins (the loser is cancelled). 0 disables hedging; negative
	// derives the delay from the live attempt-latency p99 (clamped to
	// [200µs, 50ms]).
	HedgeAfter time.Duration
	// RetryBackoff is the base jittered sleep before a failover retry
	// (doubling per attempt, ±50% jitter). 0 selects 2ms; negative disables
	// the sleep.
	RetryBackoff time.Duration
	// FailThreshold is the consecutive-failure count that ejects a shard
	// from the preference walk (0 selects DefaultFailThreshold).
	FailThreshold int
	// ProbeAfter is the ejection cool-down before a half-open probe
	// (0 selects DefaultProbeAfter).
	ProbeAfter time.Duration
	// Obs, when non-nil, is the metrics registry the router records into;
	// nil gives the router a private registry. Sharing one registry with
	// in-process shard handlers (loopback deployments) merges both layers
	// into a single Prometheus exposition.
	Obs *obs.Registry
	// Tracer, when non-nil, is the request tracer the router samples into;
	// nil gives the router a private 256-trace tracer fed by its own
	// request-latency histogram.
	Tracer *obs.Tracer
}

func (o RouterOptions) withDefaults(shards int) RouterOptions {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Replicas > MaxReplicas {
		o.Replicas = MaxReplicas
	}
	if o.Replicas > shards {
		o.Replicas = shards
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	return o
}

// ShardRouter fans suggestion traffic out to N replicas of the same model by
// consistent hash of the request context: GET /suggest forwards whole to one
// shard, POST /suggest/batch splits the batch by shard, forwards the
// sub-batches concurrently and reassembles the results in request order.
// Every replica serves the identical model, so routing choices never change
// answers — they partition the context keyspace so each replica's result
// cache and faulted-in trie pages cover only its arc.
//
// With RouterOptions.Replicas R > 1 each key range maps to an ordered
// preference list of R distinct shards and the router walks it on failure:
// per-attempt deadline, bounded retry with jittered backoff on the next
// replica, optional hedged GETs. Shard health is tracked from live traffic
// (consecutive-failure ejection, half-open probe recovery — see health.go)
// and unhealthy shards are skipped in the walk, so the ring self-heals with
// no config change and one shard down costs zero availability at R >= 2.
type ShardRouter struct {
	ring *Ring
	tr   Transport
	opts RouterOptions
	hcfg healthConfig

	health []shardHealth
	admin  *AdminState

	peerMu     sync.Mutex
	peers      []string
	peerClient *http.Client

	// shardHeader[i] is the pre-built X-Serve-Shard value for shard i;
	// attemptHeader[k] the X-Serve-Attempts value for k+1 attempts.
	shardHeader   [][]string
	attemptHeader [MaxReplicas][]string

	scratch sync.Pool // *batchScratch
	calls   sync.Pool // *shardCall
	bufs    sync.Pool // *[]byte, GET-path response buffers

	requests  atomic.Uint64
	batches   atomic.Uint64
	fanouts   atomic.Uint64 // shard sub-requests issued by batch fan-out
	retries   atomic.Uint64 // failed attempts that moved work to another replica
	failovers atomic.Uint64 // requests/items answered by a non-primary replica
	hedges    atomic.Uint64 // hedge attempts fired
	hedgesWon atomic.Uint64 // hedge attempts whose answer was served
	cancelled atomic.Uint64 // requests abandoned because the client went away first
	perShard  []atomic.Uint64

	reg        *obs.Registry
	tracer     *obs.Tracer
	attemptLat *obs.Histogram // successful attempt latencies, feeds auto hedge delay
	hedgeWait  *obs.Histogram // delays waited before firing a hedge
	reqLat     *obs.Histogram // end-to-end routed request latencies
	// hedgeCache is the cached auto hedge delay in nanoseconds, refreshed
	// from attemptLat's p99 every hedgeRefreshEvery hedgeTick increments so
	// the GET hot path never scans histogram buckets.
	hedgeCache atomic.Int64
	hedgeTick  atomic.Uint64

	maxBatch    int
	maxBodySize int64
}

// NewShardRouter builds the router over a ring and a transport of matching
// size with the default (replication-off) failure policy.
func NewShardRouter(ring *Ring, tr Transport) (*ShardRouter, error) {
	return NewShardRouterOpts(ring, tr, RouterOptions{})
}

// NewShardRouterOpts builds the router with an explicit failure policy.
func NewShardRouterOpts(ring *Ring, tr Transport, opts RouterOptions) (*ShardRouter, error) {
	if ring.Shards() != tr.Shards() {
		return nil, fmt.Errorf("fleet: ring has %d shards but transport %d", ring.Shards(), tr.Shards())
	}
	s := &ShardRouter{
		ring:        ring,
		tr:          tr,
		opts:        opts.withDefaults(ring.Shards()),
		hcfg:        healthConfig{failThreshold: int32(opts.FailThreshold), probeAfter: opts.ProbeAfter}.withDefaults(),
		health:      make([]shardHealth, ring.Shards()),
		admin:       NewAdminState(),
		shardHeader: make([][]string, ring.Shards()),
		perShard:    make([]atomic.Uint64, ring.Shards()),
		// Matches the shard handlers' default MaxBatch: the router must never
		// advertise a batch size a sub-batch could exceed (in the worst case
		// every item hashes to one shard), or valid requests turn into 502s.
		maxBatch:    256,
		maxBodySize: 1 << 22,
	}
	for i := range s.shardHeader {
		s.shardHeader[i] = []string{strconv.Itoa(i)}
	}
	for k := range s.attemptHeader {
		s.attemptHeader[k] = []string{strconv.Itoa(k + 1)}
	}
	s.reg = opts.Obs
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.attemptLat = s.reg.Histogram("router_attempt_us")
	s.hedgeWait = s.reg.Histogram("router_hedge_wait_us")
	s.reqLat = s.reg.Histogram("router_request_us")
	s.tracer = opts.Tracer
	if s.tracer == nil {
		s.tracer = obs.NewTracer(256, s.reqLat)
	}
	s.reg.CounterFunc("router_requests_total", s.requests.Load)
	s.reg.CounterFunc("router_batch_requests_total", s.batches.Load)
	s.reg.CounterFunc("router_batch_fanouts_total", s.fanouts.Load)
	s.reg.CounterFunc("router_retries_total", s.retries.Load)
	s.reg.CounterFunc("router_failovers_total", s.failovers.Load)
	s.reg.CounterFunc("router_hedges_total", s.hedges.Load)
	s.reg.CounterFunc("router_hedges_won_total", s.hedgesWon.Load)
	s.reg.CounterFunc("router_client_cancelled_total", s.cancelled.Load)
	return s, nil
}

// Obs returns the router's metrics registry (rendered by
// /v1/metrics?format=prometheus).
func (s *ShardRouter) Obs() *obs.Registry { return s.reg }

// Tracer returns the router's request tracer (rendered by /v1/traces).
func (s *ShardRouter) Tracer() *obs.Tracer { return s.tracer }

// Ring returns the router's consistent-hash ring.
func (s *ShardRouter) Ring() *Ring { return s.ring }

// Replicas returns the effective replication factor R (after capping to the
// ring size).
func (s *ShardRouter) Replicas() int { return s.opts.Replicas }

// Admin returns the router's reconciled fleet admin state (see
// antientropy.go).
func (s *ShardRouter) Admin() *AdminState { return s.admin }

// ServeHTTP implements http.Handler: suggestion traffic is routed by context
// hash; /healthz, /metrics, /route and /fleet answer from the router itself.
// Admin endpoints live under /v1/ with the legacy unversioned paths
// redirecting, mirroring the serving layer's surface.
func (s *ShardRouter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/suggest":
		s.suggest(w, r)
	case "/suggest/batch", "/v1/suggest/batch":
		s.batch(w, r)
	case "/healthz":
		s.healthz(w)
	case "/v1/metrics":
		if wantsPrometheusFormat(r) {
			s.prometheus(w)
			return
		}
		s.metrics(w)
	case "/v1/traces":
		s.traces(w, r)
	case "/v1/route":
		s.route(w, r)
	case "/v1/reload":
		s.reload(w, r)
	case "/v1/fleet":
		s.fleetState(w, r)
	case "/metrics":
		// Prometheus scrapers conventionally hit bare /metrics and do not
		// follow redirects: serve the exposition directly in that case.
		if wantsPrometheusFormat(r) {
			s.prometheus(w)
			return
		}
		redirectV1(w, r)
	case "/route", "/fleet":
		redirectV1(w, r)
	case "/reload":
		// POST cannot follow a 301 without changing semantics: alias it.
		s.reload(w, r)
	default:
		writeErrorJSON(w, http.StatusNotFound, "not_found", "no such endpoint")
	}
}

// ShardReloadResult is one shard's slice of the router's /reload broadcast.
type ShardReloadResult struct {
	Shard    int             `json:"shard"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// ShardReloadResponse is the router's POST /reload payload: the broadcast's
// per-shard outcomes.
type ShardReloadResponse struct {
	Shards []ShardReloadResult `json:"shards"`
}

// reload broadcasts POST /reload (query string included, so model= and
// force= pass through) to every shard and reports each outcome. The overall
// status is 200 only when every shard answered 200; otherwise the worst
// shard status (502 for transport failures) so automation notices partial
// rollouts. A successful broadcast refreshes the router's reconciled admin
// state, so the new generations are visible on /v1/fleet (and, via
// anti-entropy, on every peer router) immediately.
func (s *ShardRouter) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	path := "/reload"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp := ShardReloadResponse{Shards: make([]ShardReloadResult, s.ring.Shards())}
	overall := http.StatusOK
	for shard := range resp.Shards {
		res := ShardReloadResult{Shard: shard}
		status, body, err := s.tr.Exchange(r.Context(), shard, http.MethodPost, path, nil, nil)
		if err != nil {
			res.Status = http.StatusBadGateway
			res.Error = err.Error()
		} else {
			res.Status = status
			if json.Valid(body) {
				res.Response = json.RawMessage(bytes.Clone(body))
			} else {
				res.Error = string(bytes.TrimSpace(body))
			}
		}
		if res.Status > overall {
			overall = res.Status
		}
		resp.Shards[shard] = res
	}
	s.RefreshAdmin(r.Context())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(overall)
	_ = json.NewEncoder(w).Encode(resp)
}

// attemptCtx is the context one shard attempt — a GET attempt, or the
// sub-batches of one batch round — runs under: the request's context, with the
// attempt's deadline and the request's X-Trace-Id header value as plain
// fields. It carries values and arms nothing: Done and Err are the request's,
// so nothing fires when the deadline passes (whoever can block arms the timer,
// see Transport.Exchange), there is nothing to cancel, and an exchange of a
// microsecond does not pay for a runtime timer set two seconds out. One is
// allocated per attempt and never pooled: a transport, or a context derived
// from this one, may still hold it after the exchange has returned.
type attemptCtx struct {
	context.Context           // the request's
	deadline        time.Time // zero: no deadline
	hv              []string  // obs.Trace.HeaderValue of the request: immutable
}

// newAttemptCtx builds the context of an attempt that starts at now: its
// deadline is the earlier of the request's own and now + ShardTimeout.
func (s *ShardRouter) newAttemptCtx(req context.Context, hv []string, now time.Time) *attemptCtx {
	c := &attemptCtx{Context: req, hv: hv}
	if s.opts.ShardTimeout > 0 {
		c.deadline = now.Add(s.opts.ShardTimeout)
	}
	if dl, ok := req.Deadline(); ok && (c.deadline.IsZero() || dl.Before(c.deadline)) {
		c.deadline = dl
	}
	return c
}

// Deadline implements context.Context with the attempt's deadline.
func (c *attemptCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

// TraceHeader implements obs.TraceHeaderCarrier.
func (c *attemptCtx) TraceHeader() []string { return c.hv }

// Value implements context.Context. A context derived from this one (the
// cancellable child of a raced attempt, HTTPTransport's deadline) is no
// carrier itself and finds the trace header here.
func (c *attemptCtx) Value(key any) any {
	if _, ok := key.(obs.TraceHeaderKey); ok {
		return c.hv
	}
	return c.Context.Value(key)
}

// backoffSleep sleeps the jittered failover backoff before retry attempt
// k >= 1: base doubling per attempt with ±50% jitter, so replicas of a
// struggling ring do not retry in lockstep.
func (s *ShardRouter) backoffSleep(k int) {
	base := s.opts.RetryBackoff
	if base <= 0 {
		return
	}
	d := base << (k - 1)
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // [d/2, 3d/2)
	time.Sleep(d)
}

// retryable reports whether an attempt outcome should fail over to the next
// replica: transport errors and shard-side 5xx. Sub-5xx statuses are the
// shard's deterministic answer (including 4xx) — retrying cannot change
// them, and they must not poison the shard's health.
func retryable(status int, err error) bool {
	return err != nil || status >= http.StatusInternalServerError
}

// attemptOutcome is the verdict on one finished shard attempt, GET or
// sub-batch alike: what it does to the shard's breaker, whether the walk moves
// on to the next replica, and the outcome its trace span is closed with.
type attemptOutcome uint8

const (
	attemptAnswered    attemptOutcome = iota // the shard answered, with any sub-5xx status: pass it on
	attemptCancelled                         // failed after the client went away: nothing learned
	attemptError                             // transport error or unusable answer: fail over
	attemptUpstream5xx                       // shard-side 5xx: fail over
)

// attemptOutcomeNames maps outcomes to what their trace spans are closed with.
var attemptOutcomeNames = [...]string{"ok", "cancelled", "error", "upstream-5xx"}

// String names the outcome on the attempt's trace span.
func (o attemptOutcome) String() string { return attemptOutcomeNames[o] }

// failedOver reports a failure that counted against the shard: the walk moves
// the work to the next replica.
func (o attemptOutcome) failedOver() bool { return o >= attemptError }

// settleAttempt classifies a finished attempt by the retryable rule and books
// it against its shard's breaker. An answer closes the breaker. A failure
// counts — unless the request's own context is done: a failure seen after
// that says nothing about the shard (a disconnected client makes every
// attempt fail with context.Canceled, and three of those would eject a
// healthy shard), so it is not counted and the half-open probe claim the
// attempt may have carried is handed back, or the breaker would strand at
// "probing". now is when the attempt ended.
func (s *ShardRouter) settleAttempt(parent context.Context, shard, status int, err error, now time.Time) attemptOutcome {
	switch {
	case !retryable(status, err):
		s.health[shard].recordSuccess()
		return attemptAnswered
	case parent.Err() != nil:
		s.health[shard].releaseProbe()
		return attemptCancelled
	}
	s.health[shard].recordFailure(s.hcfg, now)
	if err != nil {
		return attemptError
	}
	return attemptUpstream5xx
}

// batchScratch is the pooled working state of one batch fan-out: the raw
// body, the walked items, the per-item preference lists and attempt masks, the
// per-round scatter targets and the merged response builder. Everything is
// recycled, so a steady-state fan-out allocates only each round's attempt
// context and call goroutines.
type batchScratch struct {
	body []byte
	// The walked body (jsonspan.AppendBatch): every item's span to forward
	// and, in toks, its context strings to hash.
	items []jsonspan.Item
	toks  [][2]int

	prefs   []int    // stride-R preference list per item (R = effective replicas)
	tried   []uint8  // per-item bitmask over the preference list
	target  []int    // this round's shard per pending item (-1 = none)
	pending []int    // item indices awaiting service
	next    []int    // pending list being built for the next round
	failed  []int    // items that exhausted every replica
	counts  []int    // items per shard, this round
	avail   []bool   // per-shard availability, this round
	probes  []bool   // per-shard: availability was a half-open probe claim
	results [][]byte // per-item result bytes, aliasing the shardCall buffers
	calls   []*shardCall
	refused *shardCall // the first sub-batch a shard refused (see shardCall.served)
	out     []byte     // merged response body
	wg      sync.WaitGroup
}

// shardCall is one pooled sub-batch exchange: the items it carries, the
// sub-body sent to a shard, the shard's status and raw answer, and the
// answer's result spans. The response buffer stays alive until the merge
// completes — results are scattered zero-copy. start, durMicros and outcome
// are written by the goroutine that runs the call (exchangeSubBatch) and read
// after the round's wait on the request goroutine, which records the trace
// span retroactively.
type shardCall struct {
	shard     int
	items     []int // item indices, request order
	sub       []byte
	resp      []byte
	spans     [][2]int
	status    int
	err       error
	outcome   attemptOutcome
	start     time.Time
	durMicros int64
}

// served reports that the shard answered the sub-batch with results. The
// other answer (outcome attemptAnswered, any sub-5xx status but 200) is a
// refusal: the shard's deterministic verdict on what the client sent, which
// no replica would answer differently.
func (c *shardCall) served() bool {
	return c.outcome == attemptAnswered && c.status == http.StatusOK
}

func (s *ShardRouter) getScratch() *batchScratch {
	b, _ := s.scratch.Get().(*batchScratch)
	if b == nil {
		b = &batchScratch{body: make([]byte, 0, 4096)}
	}
	n := s.ring.Shards()
	if len(b.counts) != n {
		b.counts = make([]int, n)
		b.avail = make([]bool, n)
		b.probes = make([]bool, n)
	}
	b.body = b.body[:0]
	b.items = b.items[:0]
	b.toks = b.toks[:0]
	b.prefs = b.prefs[:0]
	b.tried = b.tried[:0]
	b.target = b.target[:0]
	b.pending = b.pending[:0]
	b.next = b.next[:0]
	b.failed = b.failed[:0]
	b.results = b.results[:0]
	b.calls = b.calls[:0]
	b.out = b.out[:0]
	return b
}

func (s *ShardRouter) putScratch(b *batchScratch) {
	for i := range b.results {
		b.results[i] = nil
	}
	b.refused = nil
	s.putCalls(b)
	s.scratch.Put(b)
}

// putCalls recycles the scratch's outstanding shard calls (between rounds
// and at the end of the fan-out).
func (s *ShardRouter) putCalls(b *batchScratch) {
	for _, c := range b.calls {
		c.items = c.items[:0]
		c.sub = c.sub[:0]
		c.resp = c.resp[:0]
		c.spans = c.spans[:0]
		c.err = nil
		s.calls.Put(c)
	}
	b.calls = b.calls[:0]
}

// batch splits a POST /suggest/batch body across shards and merges the
// responses back into request order. The body is walked once, by the walker
// the shards' own handler consumes (jsonspan.AppendBatch): what it refuses is
// answered 400 here, as one handler would, and no shard hears of it. Items
// travel as raw byte spans of the request body and shard results are
// scattered into the merged response zero-copy from pooled per-shard
// buffers. The whole fan-out recycles its working state, which is what holds
// BenchmarkShardFanout64's alloc gate; per-item took_us values come from the
// shards and the top-level took_us stays 0 (clients sum per-result values).
//
// With replication (R > 1) the fan-out runs in rounds: round 0 groups items
// by their first healthy preference and fans out concurrently; items whose
// call failed re-group by their next untried replica for round 1, after a
// jittered backoff; and so on until served or every replica was tried. Only
// items that exhaust the whole preference list fail the request (buffered:
// 502) or degrade to error lines (streaming) — a single shard down at
// R >= 2 is absorbed invisibly, with byte-identical results, because every
// replica serves the same compiled blob.
//
// A sub-batch a shard refuses with a sub-5xx status is the client's error,
// exactly as on the GET path (retryable): it is not retried and counts
// against no breaker. The buffered batch answers the shard's status and
// error envelope; the streamed one turns it into error lines for the
// sub-batch's items.
//
// With ?stream=1 (or Accept: application/x-ndjson) the merge is skipped:
// each shard's sub-batch is written the moment it completes, one NDJSON
// line per item — {"index":N,"result":{...}} with the item bytes exactly as
// the buffered merge would have carried them — and the connection is
// flushed per sub-batch, so a client sees its first results at the latency
// of the fastest shard, not the slowest. Lines arrive in an arbitrary
// order; index is the item's position in the request.
func (s *ShardRouter) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	tr := s.tracer.Start()
	tr.Adopt(r.Header["X-Trace-Id"])
	w.Header()["X-Trace-Id"] = tr.HeaderValue()
	ctx := r.Context()
	// Assume the worst until a success path flips it; the deferred finish
	// then tail-samples error traces without per-return bookkeeping.
	errored := true
	defer func() {
		elapsed := tr.Elapsed()
		s.reqLat.Record(elapsed.Microseconds())
		s.tracer.FinishElapsed(tr, elapsed, errored)
	}()
	var err error
	if sc.body, err = AppendReadAll(sc.body, http.MaxBytesReader(w, r.Body, s.maxBodySize)); err != nil {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	if sc.items, sc.toks, err = jsonspan.AppendBatch(sc.items, sc.toks, sc.body); err != nil {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if len(sc.items) == 0 {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request", "empty batch: requests must contain at least one context")
		return
	}
	if len(sc.items) > s.maxBatch {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d exceeds limit %d", len(sc.items), s.maxBatch))
		return
	}

	// Assign each item its stride-R preference list by context hash; the
	// primary feeds the per-shard distribution counters.
	R := s.opts.Replicas
	for i, it := range sc.items {
		h := hashBatchContext(sc.body, sc.toks[it.TokLo:it.TokHi])
		sc.prefs = s.ring.LookupN(h, R, sc.prefs)
		s.perShard[sc.prefs[i*R]].Add(1)
		sc.tried = append(sc.tried, 0)
		sc.pending = append(sc.pending, i)
	}

	var out *streamOut // nil: buffered
	if WantsNDJSONStream(r) {
		out = &streamOut{w: w}
		out.flusher, _ = w.(http.Flusher)
		w.Header()["Content-Type"] = NDJSONContentType
		w.WriteHeader(http.StatusOK)
	}

	for len(sc.results) < len(sc.items) {
		sc.results = append(sc.results, nil)
	}
	sc.results = sc.results[:len(sc.items)]

	var failMsg string
	for round := 0; len(sc.pending) > 0 && round < R && ctx.Err() == nil; round++ {
		if round > 0 {
			s.backoffSleep(round)
		}
		failMsg = s.fanoutRound(ctx, sc, tr, R, out)
		if sc.refused != nil && out == nil {
			// No merged answer can come of this batch any more: pass the
			// shard's verdict on, as the GET path passes a 4xx on.
			w.Header()["Content-Type"] = JSONContentType
			w.WriteHeader(sc.refused.status)
			w.Write(sc.refused.resp)
			return
		}
	}
	if len(sc.pending) > 0 && ctx.Err() != nil {
		// The client went away with items unserved: nobody is left to read a
		// 502 or error lines, and nothing was learned about the shards.
		s.cancelled.Add(1)
		errored = false
		if out == nil {
			writeErrorJSON(w, statusClientClosedRequest, "client_closed_request", "client went away before the shards answered")
		}
		return
	}
	sc.failed = append(sc.failed, sc.pending...)
	if len(sc.failed) > 0 && failMsg == "" {
		failMsg = "all replicas failed"
	}

	if out != nil {
		if len(sc.failed) > 0 {
			// The 200 is already on the wire: per-item error lines are the
			// only way left to report items whose every replica failed.
			out.writeErrors(sc, sc.failed, "bad_gateway", failMsg)
		}
		errored = len(sc.failed) > 0 || sc.refused != nil
		s.batches.Add(1)
		return
	}
	if len(sc.failed) > 0 {
		writeErrorJSON(w, http.StatusBadGateway, "bad_gateway",
			fmt.Sprintf("%d item(s) failed on every replica: %s", len(sc.failed), failMsg))
		return
	}
	s.batches.Add(1)
	errored = false

	sc.out = append(sc.out, `{"results":[`...)
	for i, res := range sc.results {
		if i > 0 {
			sc.out = append(sc.out, ',')
		}
		sc.out = append(sc.out, res...)
	}
	sc.out = append(sc.out, `],"took_us":0}`...)
	if n := s.failoversOf(sc, R); n > 0 {
		w.Header()["X-Serve-Failovers"] = []string{strconv.Itoa(n)}
	}
	w.Header()["Content-Type"] = JSONContentType
	w.Write(sc.out)
}

// failoversOf counts the batch's items that were answered by a non-primary
// replica (for the X-Serve-Failovers response header).
func (s *ShardRouter) failoversOf(sc *batchScratch, R int) int {
	if R < 2 {
		return 0
	}
	n := 0
	for _, c := range sc.calls {
		if !c.served() {
			continue
		}
		for _, i := range c.items {
			if sc.prefs[i*R] != c.shard {
				n++
			}
		}
	}
	return n
}

// fanoutRound serves one failover round: pending items are grouped by their
// next untried preference (healthy shards first, failing open when none
// are), the groups are exchanged concurrently, served calls scatter results
// (or have streamed their lines), refused calls answer their items with the
// shard's error, and failed calls push their items into the next round's
// pending list.
//
// The sub-batches of a round start together, so they share one attempt
// context (attemptCtx) — one ShardTimeout deadline, counted from the clock read
// that opened the round — which, like an inline GET attempt's, is derived from
// nothing and needs no cancel: the round waits for every call. All but the
// last run on goroutines of their own; the last runs here, on the
// request goroutine, which would otherwise only wait for the others. Each
// completed call is recorded retroactively as a "shard-batch" span on tr
// after the wait, on the request goroutine: whichever goroutine ran a call
// only stamped timings and the outcome into its own shardCall. Returns the
// last failed call's message, for the final error report.
func (s *ShardRouter) fanoutRound(ctx context.Context, sc *batchScratch, tr *obs.Trace, R int, out *streamOut) string {
	// Evaluate availability once per shard per round; remember half-open
	// probe claims so unclaimed ones (no traffic grouped onto them) can be
	// released instead of stranding the breaker.
	now := time.Now()
	for sh := range s.health {
		sc.avail[sh], sc.probes[sh] = false, false
		st := s.health[sh].state.Load()
		if s.health[sh].available(s.hcfg, now) {
			sc.avail[sh] = true
			sc.probes[sh] = st == healthOpen // claim happened via open → half-open
		}
	}
	clear(sc.counts)
	sc.target = sc.target[:0]
	for _, i := range sc.pending {
		t := -1
		for k := 0; k < R; k++ {
			if sc.tried[i]&(1<<k) == 0 && sc.avail[sc.prefs[i*R+k]] {
				t = k
				break
			}
		}
		if t < 0 {
			for k := 0; k < R; k++ {
				if sc.tried[i]&(1<<k) == 0 {
					t = k
					break
				}
			}
		}
		if t < 0 {
			sc.target = append(sc.target, -1)
			continue
		}
		sc.tried[i] |= 1 << t
		sh := sc.prefs[i*R+t]
		sc.target = append(sc.target, sh)
		sc.counts[sh]++
	}
	for sh, probe := range sc.probes {
		if probe && sc.counts[sh] == 0 {
			s.health[sh].releaseProbe()
		}
	}

	// Build this round's calls; earlier rounds' calls stay in sc.calls, their
	// buffers still backing scattered results.
	callsBefore := len(sc.calls)
	for sh, count := range sc.counts {
		if count == 0 {
			continue
		}
		s.fanouts.Add(1)
		call, _ := s.calls.Get().(*shardCall)
		if call == nil {
			call = &shardCall{}
		}
		call.shard = sh
		call.sub = append(call.sub, `{"requests":[`...)
		first := true
		for j, i := range sc.pending {
			if sc.target[j] != sh {
				continue
			}
			call.items = append(call.items, i)
			if !first {
				call.sub = append(call.sub, ',')
			}
			first = false
			sp := sc.items[i].Span
			call.sub = append(call.sub, sc.body[sp[0]:sp[1]]...)
		}
		call.sub = append(call.sub, `]}`...)
		sc.calls = append(sc.calls, call)
	}
	round := sc.calls[callsBefore:]
	if len(round) > 0 {
		actx := s.newAttemptCtx(ctx, tr.HeaderValue(), now)
		for _, call := range round[:len(round)-1] {
			sc.wg.Add(1)
			go func(call *shardCall) {
				defer sc.wg.Done()
				s.exchangeSubBatch(actx, sc, call, out)
			}(call)
		}
		s.exchangeSubBatch(actx, sc, round[len(round)-1], out)
		sc.wg.Wait()
	}

	failMsg := ""
	sc.next = sc.next[:0]
	for j, i := range sc.pending {
		if sc.target[j] < 0 {
			sc.next = append(sc.next, i) // exhausted; caller moves it to failed
		}
	}
	for _, call := range round {
		tr.Record("shard-batch", tr.Offset(call.start).Microseconds(), call.durMicros, call.shard, call.outcome.String())
		switch {
		case call.served():
			if out == nil {
				for j, i := range call.items {
					sp := call.spans[j]
					sc.results[i] = call.resp[sp[0]:sp[1]]
				}
			}
		case call.outcome == attemptAnswered:
			call.clientPositions()
			if sc.refused == nil {
				sc.refused = call
			}
			if out != nil {
				code, msg := call.refusal()
				out.writeErrors(sc, call.items, code, msg)
			}
		default:
			sc.next = append(sc.next, call.items...)
			if call.outcome.failedOver() {
				failMsg = call.failure()
				s.retries.Add(uint64(len(call.items)))
			}
		}
	}
	sc.pending, sc.next = sc.next, sc.pending[:0]
	// Exhausted items re-queued above will find no untried preference next
	// round and fall through to failed; simpler than a second list here.
	return failMsg
}

// subBatchPath is what the router asks of every shard: the batch endpoint's
// NDJSON form, whose one line per item parseResults takes apart by newline.
const subBatchPath = "/suggest/batch?stream=1"

// exchangeSubBatch runs one sub-batch to its verdict on the calling
// goroutine: post it under the round's attempt context, split a 200 into
// result spans (all into the call's recycled buffers), settle the outcome
// against the shard's breaker, and in streamed mode write served lines the
// moment they land, while slower shards are still descending. It touches
// only its own call and, under its mutex, the stream.
func (s *ShardRouter) exchangeSubBatch(actx context.Context, sc *batchScratch, call *shardCall, out *streamOut) {
	call.start = time.Now()
	call.status, call.resp, call.err = s.tr.Exchange(actx, call.shard, http.MethodPost, subBatchPath, call.sub, call.resp)
	if call.err == nil && call.status == http.StatusOK {
		call.err = call.parseResults()
	}
	end := time.Now()
	call.durMicros = end.Sub(call.start).Microseconds()
	call.outcome = s.settleAttempt(actx, call.shard, call.status, call.err, end)
	if out != nil && call.served() {
		out.writeCall(sc, call)
	}
}

// parseResults takes the shard's line-framed answer apart into the call's
// recycled span buffer, one result-object span per item. The shard knew every
// item boundary when it wrote the lines, so the split is a newline search,
// not a JSON scan — but each line's frame is still checked: line j must read
// {"index":j,"result":{ ... }} and end in '\n', and there must be exactly one
// line per item sent. A truncated, reordered, short, long or foreign answer
// is therefore an error — a retryable shard failure — and never a result
// scattered to the wrong item.
func (c *shardCall) parseResults() error {
	c.spans = c.spans[:0]
	var frame [32]byte
	for off := 0; off < len(c.resp); {
		j := len(c.spans)
		if j == len(c.items) {
			return fmt.Errorf("shard answered more than the %d lines asked for", j)
		}
		nl := bytes.IndexByte(c.resp[off:], '\n')
		if nl < 0 {
			return fmt.Errorf("shard answer ends inside line %d", j)
		}
		line := c.resp[off : off+nl]
		pre := append(strconv.AppendInt(append(frame[:0], `{"index":`...), int64(j), 10), `,"result":{`...)
		if len(line) < len(pre)+2 || !bytes.HasPrefix(line, pre) || string(line[len(line)-2:]) != "}}" {
			return fmt.Errorf("shard answer line %d is not a framed result: %.80q", j, line)
		}
		c.spans = append(c.spans, [2]int{off + len(pre) - 1, off + nl - 1})
		off += nl + 1
	}
	if len(c.spans) != len(c.items) {
		return fmt.Errorf("shard answered %d lines for %d items", len(c.spans), len(c.items))
	}
	return nil
}

// failure words a failed call for the batch's final error report.
func (c *shardCall) failure() string {
	if c.err != nil {
		return fmt.Sprintf("shard %d: %v", c.shard, c.err)
	}
	return fmt.Sprintf("shard %d: status %d: %s", c.shard, c.status, bytes.TrimSpace(c.resp))
}

// clientPositions rewrites a refusal in place to speak of the client's batch:
// the shard names the item it refused by its position in the sub-batch
// ("requests[0]: n must be ..."), and items says which of the client's items
// that was. Both relays of a refusal — the buffered batch's envelope and the
// streamed one's error lines — read resp after this. Only the first
// "requests[N]" is the position; anything later is quoted client input.
func (c *shardCall) clientPositions() {
	const tag = "requests["
	lo := bytes.Index(c.resp, []byte(tag))
	if lo < 0 {
		return
	}
	lo += len(tag)
	hi := lo
	for hi < len(c.resp) && '0' <= c.resp[hi] && c.resp[hi] <= '9' {
		hi++
	}
	j, err := strconv.Atoi(string(c.resp[lo:hi]))
	if err != nil || j >= len(c.items) || hi == len(c.resp) || c.resp[hi] != ']' {
		return
	}
	rest := bytes.Clone(c.resp[hi:])
	c.resp = append(strconv.AppendInt(c.resp[:lo], int64(c.items[j]), 10), rest...)
}

// refusal reads the code and message out of the error envelope a shard
// refused its sub-batch with (positions already the client's, see
// clientPositions), for the streamed batch's per-item error lines. An answer
// that is no envelope is quoted whole.
func (c *shardCall) refusal() (code, msg string) {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(c.resp, &env) == nil && env.Error.Code != "" {
		return env.Error.Code, fmt.Sprintf("shard %d: %s", c.shard, env.Error.Message)
	}
	return "shard_refused", c.failure()
}

// streamOut is the client side of a streamed (NDJSON) batch. Sub-batches
// complete on different goroutines; mu serialises their writes and guards
// the scratch's line builder (sc.out), which the writers share.
type streamOut struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
}

// writeCall writes one served sub-batch as NDJSON lines, one per item the
// call carried, each tagged with the item's index in the original request,
// and flushes them to the client. Result bytes are the shard's result spans
// verbatim — the same bytes the buffered merge scatters — so streamed and
// buffered responses agree item for item, whichever replica answered.
func (o *streamOut) writeCall(sc *batchScratch, call *shardCall) {
	o.mu.Lock()
	defer o.mu.Unlock()
	sc.out = sc.out[:0]
	for j, i := range call.items {
		sp := call.spans[j]
		sc.out = append(sc.out, `{"index":`...)
		sc.out = strconv.AppendInt(sc.out, int64(i), 10)
		sc.out = append(sc.out, `,"result":`...)
		sc.out = append(sc.out, call.resp[sp[0]:sp[1]]...)
		sc.out = append(sc.out, '}', '\n')
	}
	o.flush(sc.out)
}

// writeErrors answers items with NDJSON error lines — the stream's 200 is
// already committed, so per-item errors are the only channel left.
func (o *streamOut) writeErrors(sc *batchScratch, items []int, code, msg string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	sc.out = sc.out[:0]
	for _, i := range items {
		sc.out = append(sc.out, `{"index":`...)
		sc.out = strconv.AppendInt(sc.out, int64(i), 10)
		sc.out = jsonspan.AppendError(append(sc.out, ','), code, msg)
	}
	o.flush(sc.out)
}

// flush pushes built lines to the client. Callers hold mu.
func (o *streamOut) flush(lines []byte) {
	o.w.Write(lines)
	if o.flusher != nil {
		o.flusher.Flush()
	}
}

// WantsNDJSONStream reports whether a batch request opted into the
// streaming NDJSON response: a stream=1 pair in the query string or an Accept
// header naming application/x-ndjson. The query string is read off the
// request grammar's query walker (url.Query would allocate on the hot path
// for every buffered request too). The single handler asks the same
// question of its batches with this.
func WantsNDJSONStream(r *http.Request) bool {
	var buf [32]byte
	q := jsonspan.Query(r.URL.RawQuery)
	for key, val, _, ok := q.Next(buf[:0]); ok; key, val, _, ok = q.Next(buf[:0]) {
		if key == "stream" && string(val) == "1" {
			return true
		}
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// Content-Type header values, shared — by the router and by the handlers of
// internal/serve — for allocation-free header assignment: never written to.
var (
	JSONContentType       = []string{"application/json"}
	NDJSONContentType     = []string{"application/x-ndjson"}
	PrometheusContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}
)

// redirectV1 301s a legacy unversioned admin path to its /v1/ home.
func redirectV1(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusMovedPermanently)
}

// writeErrorJSON answers a non-2xx with the consistent error envelope
// {"error":{"code","message"}} every handler in the repository uses, from the
// one encoder of it.
func writeErrorJSON(w http.ResponseWriter, status int, code, msg string) {
	w.Header()["Content-Type"] = JSONContentType
	w.WriteHeader(status)
	w.Write(jsonspan.AppendError([]byte{'{'}, code, msg))
}

// ShardRouterHealth is the shard router's /healthz payload: liveness plus
// the replication factor and every shard breaker's live state.
type ShardRouterHealth struct {
	Status        string             `json:"status"`
	Role          string             `json:"role"`
	Shards        int                `json:"shards"`
	Replicas      int                `json:"replicas"`
	ShardsHealthy int                `json:"shards_healthy"`
	ShardHealth   []ShardHealthStats `json:"shard_health"`
}

func (s *ShardRouter) healthz(w http.ResponseWriter) {
	resp := ShardRouterHealth{
		Status:   "ok",
		Role:     "router",
		Shards:   s.ring.Shards(),
		Replicas: s.opts.Replicas,
	}
	for i := range s.health {
		hs := s.health[i].snapshot(i)
		if hs.State == "healthy" {
			resp.ShardsHealthy++
		}
		resp.ShardHealth = append(resp.ShardHealth, hs)
	}
	if resp.ShardsHealthy == 0 {
		resp.Status = "degraded"
	}
	writeJSON(w, resp)
}

// ShardRouterMetrics is the shard router's /metrics payload: routed request
// counters, the per-shard distribution (contexts routed to each replica —
// near-even by construction of the ring), and the failure-policy counters:
// retries (failed attempts moved to another replica), failovers (requests
// answered by a non-primary), hedges fired/won, and each shard breaker's
// state.
type ShardRouterMetrics struct {
	Role          string `json:"role"`
	Shards        int    `json:"shards"`
	Replicas      int    `json:"replicas"`
	Requests      uint64 `json:"requests"`
	BatchRequests uint64 `json:"batch_requests"`
	BatchFanouts  uint64 `json:"batch_fanouts"`
	Retries       uint64 `json:"retries"`
	Failovers     uint64 `json:"failovers"`
	Hedges        uint64 `json:"hedges"`
	HedgesWon     uint64 `json:"hedges_won"`
	// Cancelled counts requests whose client went away before the shards
	// answered; their failed attempts are not held against the breakers.
	Cancelled uint64 `json:"client_cancelled"`
	// Request* summarise end-to-end routed request latency (GET and batch);
	// Attempt* summarise successful individual shard attempts, the
	// distribution that drives the auto hedge delay.
	RequestP50Micros  int64              `json:"request_p50_us"`
	RequestP99Micros  int64              `json:"request_p99_us"`
	RequestP999Micros int64              `json:"request_p999_us"`
	RequestMaxMicros  int64              `json:"request_max_us"`
	AttemptP50Micros  int64              `json:"attempt_p50_us"`
	AttemptP99Micros  int64              `json:"attempt_p99_us"`
	AttemptP999Micros int64              `json:"attempt_p999_us"`
	AttemptMaxMicros  int64              `json:"attempt_max_us"`
	ContextsPerShard  []uint64           `json:"contexts_per_shard"`
	ShardHealth       []ShardHealthStats `json:"shard_health"`
	AntiEntropy       *AdminStateStats   `json:"anti_entropy,omitempty"`
}

func (s *ShardRouter) metrics(w http.ResponseWriter) {
	m := ShardRouterMetrics{
		Role:          "router",
		Shards:        s.ring.Shards(),
		Replicas:      s.opts.Replicas,
		Requests:      s.requests.Load(),
		BatchRequests: s.batches.Load(),
		BatchFanouts:  s.fanouts.Load(),
		Retries:       s.retries.Load(),
		Failovers:     s.failovers.Load(),
		Hedges:        s.hedges.Load(),
		HedgesWon:     s.hedgesWon.Load(),
		Cancelled:     s.cancelled.Load(),
	}
	if s.reqLat.Count() > 0 {
		m.RequestP50Micros = s.reqLat.Quantile(0.50)
		m.RequestP99Micros = s.reqLat.Quantile(0.99)
		m.RequestP999Micros = s.reqLat.Quantile(0.999)
		m.RequestMaxMicros = s.reqLat.Max()
	}
	if s.attemptLat.Count() > 0 {
		m.AttemptP50Micros = s.attemptLat.Quantile(0.50)
		m.AttemptP99Micros = s.attemptLat.Quantile(0.99)
		m.AttemptP999Micros = s.attemptLat.Quantile(0.999)
		m.AttemptMaxMicros = s.attemptLat.Max()
	}
	for i := range s.perShard {
		m.ContextsPerShard = append(m.ContextsPerShard, s.perShard[i].Load())
	}
	for i := range s.health {
		m.ShardHealth = append(m.ShardHealth, s.health[i].snapshot(i))
	}
	st := s.admin.Stats()
	m.AntiEntropy = &st
	writeJSON(w, m)
}

// RouteResponse is the /route admin payload: where a context would go,
// without serving it — the whole preference list under replication.
type RouteResponse struct {
	Hash     string `json:"context_hash"`
	Shard    int    `json:"shard"`
	Replicas []int  `json:"replicas,omitempty"`
}

// route reports the shard assignment for the context in the query string —
// the debugging endpoint for "which replicas own this context?".
func (s *ShardRouter) route(w http.ResponseWriter, r *http.Request) {
	h := hashQueryContext(r.URL.RawQuery)
	prefs := s.ring.LookupN(h, s.opts.Replicas, nil)
	resp := RouteResponse{Hash: fmt.Sprintf("%016x", h), Shard: prefs[0]}
	if len(prefs) > 1 {
		resp.Replicas = prefs
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// wantsPrometheusFormat reports whether the request asked for the
// Prometheus text exposition via ?format=prometheus.
func wantsPrometheusFormat(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "format=prometheus")
}

// prometheus renders the router's registry in the Prometheus text format.
func (s *ShardRouter) prometheus(w http.ResponseWriter) {
	w.Header()["Content-Type"] = PrometheusContentType
	_ = s.reg.WritePrometheus(w)
}

// traces serves GET /v1/traces: the router's tail-sampled retained traces,
// newest first, filterable with ?min_us=N, ?error=1 and ?limit=N. Each
// trace shows the request's failover story: per-attempt shard spans with
// outcomes, breaker skips and hedge firings.
func (s *ShardRouter) traces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	var minMicros int64
	var onlyErrors bool
	limit := 0
	q := r.URL.Query()
	if v := q.Get("min_us"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			minMicros = n
		}
	}
	if v := q.Get("error"); v == "1" || v == "true" {
		onlyErrors = true
	}
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			limit = n
		}
	}
	views := s.tracer.Snapshot(minMicros, onlyErrors, limit)
	resp := struct {
		SlowThresholdMicros int64           `json:"slow_threshold_us,omitempty"`
		Count               int             `json:"count"`
		Traces              []obs.TraceView `json:"traces"`
	}{Count: len(views), Traces: views}
	if th := s.tracer.SlowThresholdMicros(); th < math.MaxInt64 {
		resp.SlowThresholdMicros = th
	}
	writeJSON(w, resp)
}
