package serve

import (
	"net/http"
	"runtime/debug"
	"sync"

	"repro/internal/obs"
)

// statusWriter captures the response status so the instrumentation
// middleware can count errors and log outcomes. Writers are pooled and carry
// the per-request instrumentation state — including the request's pooled
// trace and correlation ID — so a request adds no middleware allocations:
// the deferred finish is a plain method call (open-coded by the compiler),
// not a closure.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool

	h      *Handler
	method string
	path   string
	tr     *obs.Trace // its Start is the request's: the one clock read on the way in
	rid    string     // X-Request-Id: client-supplied, or the trace ID
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

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
// the process's goroutine), counts errors, records the per-route latency
// histograms, hands the trace to the tail-sampling tracer, logs with the
// request ID, and recycles the writer.
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
	// The one clock read on the way out: histograms, log line and trace
	// total all take this value.
	elapsed := w.tr.Elapsed()
	took := elapsed.Microseconds()
	h.histHTTP.Record(took)
	switch w.path {
	case "/suggest":
		h.histRouteSuggest.Record(took)
	case "/suggest/batch", "/v1/suggest/batch":
		h.histRouteBatch.Record(took)
	default:
		h.histRouteAdmin.Record(took)
	}
	if h.opts.Logger != nil {
		// Log before Finish: the trace must not be touched afterwards.
		h.opts.Logger.Printf("%s %s -> %d (%s) rid=%q trace=%s",
			w.method, w.path, w.status(), elapsed, w.loggedRID(), w.tr.ID())
	}
	h.tracer.FinishElapsed(w.tr, elapsed, errored)
	w.tr = nil
	w.rid = ""
	w.ResponseWriter = nil
	w.h = nil
	statusWriterPool.Put(w)
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
		tr := h.tracer.StartFrom(r.Header["X-Trace-Id"])
		sw.tr = tr
		// The header values outlive the pooled trace — net/http writes them
		// after this handler has returned and the trace has been recycled —
		// which is safe because HeaderValue is immutable (obs.Trace).
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
