package serve

import (
	"net/http"
	"runtime/debug"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
)

// statusWriter captures the response status so the instrumentation
// middleware can count errors and log outcomes. Writers are pooled and carry
// the per-request state — the request's trace recorder, its correlation ID
// and the GET path's buffers — so a request takes one pool round trip and
// adds no middleware allocations: the deferred finish is a plain method call
// (open-coded by the compiler), not a closure.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool

	h      *Handler
	method string
	path   string
	rid    string     // X-Request-Id: client-supplied, or the trace ID
	tr     obs.Trace  // its start is the request's: the one clock read on the way in
	get    reqScratch // GET /suggest's buffers, emptied by finish
}

var statusWriterPool = sync.Pool{New: func() any {
	return &statusWriter{get: reqScratch{
		flat: make([]byte, 0, 256),
		raw:  make([][]byte, 0, 8),
		ctx:  make(query.Seq, 0, 8),
		recs: make([]core.Suggestion, 0, 16),
		body: make([]byte, 0, 1024),
	}}
}}

// traceOf recovers the request's trace from the instrumented writer: route
// is only ever reached through instrument, so every handler's writer is one.
func traceOf(w http.ResponseWriter) *obs.Trace { return &w.(*statusWriter).tr }

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// maxLoggedRID bounds the request ID a log line prints.
const maxLoggedRID = 64

// loggedRID is the request ID as a log line prints it, with %q: the client
// chooses it, so it is cut to maxLoggedRID bytes and quoted, and can never
// write fields of its own into the line. The echoed header is not cut.
func (w *statusWriter) loggedRID() string {
	if len(w.rid) > maxLoggedRID {
		return w.rid[:maxLoggedRID]
	}
	return w.rid
}

// finish runs deferred around every request: it recovers panics (a handler
// bug answers 500 instead of killing the connection and, under http.Server,
// the process's goroutine), counts errors, records the route's latency
// histogram and the write span, hands the trace to the tail-sampling tracer,
// logs with the request ID, and recycles the writer.
func (w *statusWriter) finish() {
	h := w.h
	errored := false
	if err := recover(); err != nil {
		h.m.panics.Add(1)
		errored = true
		if h.opts.Logger != nil {
			h.opts.Logger.Printf("panic serving %s %s rid=%q trace=%s: %v\n%s",
				w.method, w.path, w.loggedRID(), w.tr.ID(), err, debug.Stack())
		}
		if !w.wrote {
			obs.WriteError(w, http.StatusInternalServerError, "internal", "internal server error")
		}
	}
	if w.status() >= 400 {
		h.m.errors.Add(1)
		errored = true
	}
	// The one clock read on the way out: histogram, write span, log line and
	// trace total all take this value.
	elapsed := w.tr.Elapsed()
	took := elapsed.Microseconds()
	h.routeHistogram(w.path).Record(took)
	w.tr.Chain(stageWrite, took, obs.Outcome(errored))
	if h.opts.Logger != nil {
		// Log before Finish: the trace must not be touched afterwards.
		h.opts.Logger.Printf("%s %s -> %d (%s) rid=%q trace=%s",
			w.method, w.path, w.status(), elapsed, w.loggedRID(), w.tr.ID())
	}
	h.tracer.FinishElapsed(&w.tr, elapsed, errored)
	w.get.reset()
	w.rid = ""
	w.ResponseWriter = nil
	w.h = nil
	statusWriterPool.Put(w)
}

// routeHistogram returns the histogram a request to path records into.
func (h *Handler) routeHistogram(path string) *obs.Histogram {
	switch path {
	case "/suggest":
		return h.histRouteSuggest
	case "/suggest/batch", "/v1/suggest/batch":
		return h.histRouteBatch
	}
	return h.histRouteAdmin
}

// instrument wraps next with the serving middleware: request counting, trace
// start (adopting an inbound X-Trace-Id so shard-side traces share the
// router's ID), X-Trace-Id/X-Request-Id response headers, panic recovery,
// error counting, and optional request logging. Header propagation reuses
// the trace's immutable ID slice or the inbound one — the middleware
// allocates nothing at steady state.
func (h *Handler) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.m.requests.Add(1)
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter = w
		sw.code, sw.wrote = 0, false
		sw.h, sw.method, sw.path = h, r.Method, r.URL.Path
		// Direct map index: the key is canonical, and Header.Get would
		// canonicalise it again on every request.
		tr := &sw.tr
		h.tracer.StartFrom(tr, r.Header["X-Trace-Id"])
		// The header values outlive the request's use of the recorder —
		// net/http writes them after this handler has returned and the writer
		// has gone back to the pool — which is safe because HeaderValue is
		// immutable (obs.Trace).
		hdr := w.Header()
		hdr["X-Trace-Id"] = tr.HeaderValue()
		if rid := r.Header["X-Request-Id"]; len(rid) > 0 && rid[0] != "" {
			// Echo the client's correlation ID back, reusing its slice.
			hdr["X-Request-Id"] = rid
			sw.rid = rid[0]
		} else {
			hdr["X-Request-Id"] = tr.HeaderValue()
			sw.rid = tr.ID()
		}
		defer sw.finish()
		next.ServeHTTP(sw, r)
	})
}
