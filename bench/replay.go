package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jsonspan"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
)

// The traced run's second half. After each request's root span is recorded
// around the real handler, the same input is replayed against probe
// instances — their own cache, fed the same requests in the same order, so
// hits and misses fall where the real handler's do — with one span per call
// into each layer's public entry point. The replay lets the stages of one
// request be timed from outside the program. Its spans are the one source of
// layer times: the per-layer metrics read them (layerMetrics), and the
// budget compares their sum with the root span: what is left over is
// serve.unaccounted_ns.

// replayer replays one lap's requests with spans.
type replayer interface {
	replayLap(r *recorder, lap int)
	// budget names the stages of one request, in ns per request of a quiet
	// lap, that should add up to "request"; "unaccounted" is the remainder.
	budget(r *recorder) map[string]float64
	// check counts twin/probe responses that do not repeat the reference.
	check() (attempted, failed int)
}

// newReplayer picks the replay that matches e's handler chain.
func newReplayer(e *env, r *recorder) (replayer, error) {
	if e.ring != nil {
		return newRingReplay(e)
	}
	return newServeReplay(e, r), nil
}

// spanRec wraps the served model so the calls a probe cache makes into it
// on a miss show up as child spans.
type spanRec struct {
	core.Recommender
	r      *recorder
	req    int32
	parent int32
	called bool
}

func (s *spanRec) AppendSuggestions(dst []core.Suggestion, ctx query.Seq, n int) []core.Suggestion {
	i := s.r.begin("core.suggest", s.req, s.parent)
	dst = s.Recommender.AppendSuggestions(dst, ctx, n)
	s.r.end(i)
	s.called = true
	return dst
}

func (s *spanRec) RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]core.Suggestion {
	i := s.r.begin("core.suggest", s.req, s.parent)
	out := s.Recommender.RecommendBatchIDs(ctxs, ns)
	s.r.end(i)
	s.called = true
	return out
}

// obsProbe repeats, through internal/obs's public API, the recording the
// serve middleware and one stage do per request: a pooled trace with two
// spans and five histogram records.
type obsProbe struct {
	tracer *obs.Tracer
	hists  [5]*obs.Histogram
}

func newObsProbe() *obsProbe {
	reg := obs.NewRegistry()
	p := &obsProbe{}
	for i := range p.hists {
		p.hists[i] = reg.Histogram(fmt.Sprintf("probe_%d_us", i))
	}
	p.tracer = obs.NewTracer(512, p.hists[0])
	return p
}

func (p *obsProbe) request() {
	tr := p.tracer.Start()
	tr.Record("queue", 0, 0, obs.NoShard, "ok")
	tr.Record("cache", 0, 1, obs.NoShard, "hit")
	for _, h := range p.hists {
		h.Record(1)
	}
	p.tracer.Finish(tr, false)
}

// serveReplay replays a single-handler workload (GET or batch).
type serveReplay struct {
	e      *env
	raw    [][][]byte // per item: its context as byte slices
	obs    *obsProbe
	rec    *spanRec
	cm     *compiled.Model
	mirror *cache.SuggestCache // same capacity and history as the real handler's
	warm   *cache.SuggestCache // holds everything: always hits
	twin   *caller             // same handler chain over a cache that always hits

	ids   query.Seq
	off   []int
	ctxs  []query.Seq
	ns    []int
	out   [][]core.Suggestion
	preds []model.Prediction
}

func newServeReplay(e *env, r *recorder) *serveReplay {
	capacity := e.pool.cacheCapacity(e.cfg.w)
	sr := &serveReplay{
		e:      e,
		obs:    newObsProbe(),
		rec:    &spanRec{Recommender: e.rec, r: r},
		cm:     e.rec.CompiledModel(),
		mirror: cache.NewSuggestCache(capacity),
		warm:   cache.NewSuggestCache(0),
		twin:   newCaller(newServeHandler(e.rec, e.modelPath, 0), e.pool),
		ns:     make([]int, e.pool.perReq),
		out:    make([][]core.Suggestion, e.pool.perReq),
	}
	for i := range sr.ns {
		sr.ns[i] = topN
	}
	for _, it := range e.pool.items {
		raw := make([][]byte, len(it.ctx))
		for k, q := range it.ctx {
			raw[k] = []byte(q)
		}
		sr.raw = append(sr.raw, raw)
	}
	return sr
}

func (sr *serveReplay) replayLap(r *recorder, lap int) {
	p := sr.e.pool
	sr.twin.out.buf = sr.twin.out.buf[:0]
	for i, req := range p.reqs {
		id := int32(lap*len(p.reqs) + i)
		root := r.begin("replay", id, 0)
		parent := r.id(root)

		s := r.begin("obs.trace", id, parent)
		sr.obs.request()
		r.end(s)

		s = r.begin("query.intern", id, parent)
		sr.ids, sr.off = sr.ids[:0], append(sr.off[:0], 0)
		for _, raw := range sr.raw[i*p.perReq : (i+1)*p.perReq] {
			sr.ids = core.AppendContextBytes(sr.e.rec.Dict(), sr.ids, raw)
			sr.off = append(sr.off, len(sr.ids))
		}
		r.end(s)
		sr.ctxs = sr.ctxs[:0]
		for k := 0; k < p.perReq; k++ {
			sr.ctxs = append(sr.ctxs, sr.ids[sr.off[k]:sr.off[k+1]])
		}

		s = r.begin("cache.lookup", id, parent)
		sr.rec.req, sr.rec.parent, sr.rec.called = id, r.id(s), false
		if p.perReq == 1 {
			sr.mirror.RecommendSlotHit(0, 1, sr.rec, sr.ctxs[0], topN)
		} else {
			sr.mirror.RecommendBatchSlot(0, 1, sr.rec, sr.ctxs, sr.ns, sr.out)
		}
		r.end(s)

		if sr.rec.called && sr.cm != nil {
			s = r.begin("compiled.descent", id, parent)
			if p.perReq == 1 {
				sr.preds = sr.cm.AppendPredictions(sr.preds[:0], sr.ctxs[0], topN)
			} else {
				sr.cm.PredictBatch(sr.ctxs, sr.ns, func(int, []model.Prediction) {})
			}
			r.end(s)
		}

		s = r.begin("cache.warm", id, parent)
		if p.perReq == 1 {
			sr.warm.RecommendSlotHit(0, 1, sr.e.rec, sr.ctxs[0], topN)
		} else {
			sr.warm.RecommendBatchSlot(0, 1, sr.e.rec, sr.ctxs, sr.ns, sr.out)
		}
		r.end(s)

		s = r.begin("serve.twin", id, parent)
		if p.rds != nil {
			p.rds[i].Reset(p.bodies[i])
		}
		sr.twin.out.code = 0
		sr.twin.h.ServeHTTP(&sr.twin.out, req)
		r.end(s)
		sr.twin.ends[i], sr.twin.codes[i] = len(sr.twin.out.buf), sr.twin.out.code

		r.end(root)
	}
}

func (sr *serveReplay) budget(r *recorder) map[string]float64 {
	requests := float64(len(sr.e.pool.reqs))
	b := map[string]float64{
		"request":          r.dur("request") / requests,
		"obs.trace":        r.dur("obs.trace") / requests,
		"query.intern":     r.dur("query.intern") / requests,
		"cache.lookup":     r.self("cache.lookup") / requests,
		"core.suggest":     r.dur("core.suggest") / requests,
		"compiled.descent": r.dur("compiled.descent") / requests, // inside core.suggest; not summed
	}
	// What the handler chain itself costs: the always-hit twin's time minus
	// the stages it contains.
	b["serve.self"] = (r.dur("serve.twin")-r.dur("cache.warm"))/requests - b["obs.trace"] - b["query.intern"]
	b["sum"] = b["obs.trace"] + b["query.intern"] + b["cache.lookup"] + b["core.suggest"] + b["serve.self"]
	b["unaccounted"] = b["request"] - b["sum"]
	return b
}

func (sr *serveReplay) check() (attempted, failed int) {
	sr.twin.ref = sr.e.caller.ref
	return len(sr.twin.p.reqs), sr.twin.verify()
}

// exchange is one recorded call of a router into its transport.
type exchange struct {
	shard  int
	method string
	path   string
	body   []byte
	resp   []byte
}

// tapTransport records what a router sends to its shards, per request.
type tapTransport struct {
	inner     fleet.Transport
	mu        sync.Mutex // batch fan-out exchanges from several goroutines
	recording bool
	cur       int
	calls     [][]exchange
}

func (t *tapTransport) Shards() int { return t.inner.Shards() }

func (t *tapTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	status, resp, err := t.inner.Exchange(ctx, shard, method, path, body, respBuf)
	if t.recording && err == nil && status == http.StatusOK {
		t.mu.Lock()
		t.calls[t.cur] = append(t.calls[t.cur], exchange{
			shard: shard, method: method, path: path,
			body: append([]byte(nil), body...), resp: append([]byte(nil), resp[len(respBuf):]...),
		})
		t.mu.Unlock()
	}
	return status, resp, err
}

// cannedTransport answers a router's exchanges from a recording, at no
// shard cost: a router over it does only the router's own work.
type cannedTransport struct {
	shards int
	cur    int
	calls  [][]exchange
}

func (t *cannedTransport) Shards() int { return t.shards }

func (t *cannedTransport) Exchange(_ context.Context, shard int, _, _ string, _, respBuf []byte) (int, []byte, error) {
	for _, ex := range t.calls[t.cur] {
		if ex.shard == shard {
			return http.StatusOK, append(respBuf, ex.resp...), nil
		}
	}
	return 0, respBuf, fmt.Errorf("bench: no recorded exchange with shard %d for request %d", shard, t.cur)
}

// ringReplay replays a router workload (GET or batch).
type ringReplay struct {
	e      *env
	probe  *ring // probe shards with their own warm caches
	tap    *tapTransport
	canned *cannedTransport
	null   *caller // the real router type over the canned transport
	hashes []uint64
	prefs  []int
	spans  [][2]int
	buf    []byte
}

func newRingReplay(e *env) (*ringReplay, error) {
	rr := &ringReplay{e: e}
	var err error
	rr.probe, err = newRing(e.rec, e.modelPath, func(inner *fleet.LoopbackTransport) fleet.Transport {
		rr.tap = &tapTransport{inner: inner, calls: make([][]exchange, len(e.pool.reqs))}
		return rr.tap
	})
	if err != nil {
		return nil, err
	}
	// One recorded lap through a router of the probe's own tells which
	// sub-requests each request becomes; it also warms the probe shards.
	rr.tap.recording = true
	pc := newCaller(rr.probe.router, e.pool)
	for i, req := range e.pool.reqs {
		rr.tap.cur = i
		if e.pool.rds != nil {
			e.pool.rds[i].Reset(e.pool.bodies[i])
		}
		pc.out.code = 0
		rr.probe.router.ServeHTTP(&pc.out, req)
		if pc.out.code != http.StatusOK {
			return nil, fmt.Errorf("probe router answered %d for request %d", pc.out.code, i)
		}
		sort.Slice(rr.tap.calls[i], func(a, b int) bool { return rr.tap.calls[i][a].shard < rr.tap.calls[i][b].shard })
	}
	rr.tap.recording = false

	rr.canned = &cannedTransport{shards: ringShards, calls: rr.tap.calls}
	null, err := fleet.NewShardRouterOpts(fleet.NewRing(ringShards, 0), rr.canned, fleet.RouterOptions{
		Replicas:     ringReplicas,
		ShardTimeout: shardTimeout,
	})
	if err != nil {
		return nil, err
	}
	rr.null = newCaller(null, e.pool)
	for _, it := range e.pool.items {
		rr.hashes = append(rr.hashes, fleet.HashSeq(it.ids))
	}
	return rr, nil
}

func (rr *ringReplay) replayLap(r *recorder, lap int) {
	p := rr.e.pool
	ring := rr.e.ring.router.Ring()
	rr.null.out.buf = rr.null.out.buf[:0]
	for i, req := range p.reqs {
		id := int32(lap*len(p.reqs) + i)
		root := r.begin("replay", id, 0)
		parent := r.id(root)

		if p.bodies != nil {
			s := r.begin("jsonspan.split", id, parent)
			if arr, err := jsonspan.FindKey(p.bodies[i], 0, "requests"); err == nil && arr >= 0 {
				rr.spans, _ = jsonspan.AppendArraySpans(rr.spans[:0], p.bodies[i], arr)
			}
			r.end(s)
		}

		s := r.begin("fleet.ring_lookup", id, parent)
		for _, h := range rr.hashes[i*p.perReq : (i+1)*p.perReq] {
			rr.prefs = ring.LookupN(h, ringReplicas, rr.prefs[:0])
		}
		r.end(s)

		for _, ex := range rr.tap.calls[i] {
			s = r.begin("fleet.exchange", id, parent)
			_, rr.buf, _ = rr.probe.tr.Exchange(context.Background(), ex.shard, ex.method, ex.path, ex.body, rr.buf[:0])
			r.end(s)
		}

		s = r.begin("fleet.router_null", id, parent)
		rr.canned.cur = i
		if p.rds != nil {
			p.rds[i].Reset(p.bodies[i])
		}
		rr.null.out.code = 0
		rr.null.h.ServeHTTP(&rr.null.out, req)
		r.end(s)
		rr.null.ends[i], rr.null.codes[i] = len(rr.null.out.buf), rr.null.out.code

		r.end(root)
	}
}

func (rr *ringReplay) budget(r *recorder) map[string]float64 {
	requests := float64(len(rr.e.pool.reqs))
	b := map[string]float64{
		"request":           r.dur("request") / requests,
		"fleet.router_null": r.dur("fleet.router_null") / requests,
		"fleet.exchange":    r.dur("fleet.exchange") / requests,
		// Both happen inside the router's own time; shown, not summed.
		"fleet.ring_lookup": r.dur("fleet.ring_lookup") / requests,
		"jsonspan.split":    r.dur("jsonspan.split") / requests,
	}
	b["sum"] = b["fleet.router_null"] + b["fleet.exchange"]
	b["unaccounted"] = b["request"] - b["sum"]
	return b
}

func (rr *ringReplay) check() (attempted, failed int) {
	rr.null.ref = rr.e.caller.ref
	return len(rr.null.p.reqs), rr.null.verify()
}
