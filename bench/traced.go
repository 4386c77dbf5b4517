package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/fleet"
)

const (
	// tracedLaps is how many laps of the run's own workload are traced;
	// layerLaps how many of each other workload, which are traced only for
	// the layers this workload does not reach.
	tracedLaps = 100
	layerLaps  = 25
	// spansPerRequest bounds what one request records: its root span, the
	// replay span and the replay's children (a batch through the ring adds
	// one exchange per shard).
	spansPerRequest = 12
)

// tracedLap is lap with a root span around every ServeHTTP.
func (c *caller) tracedLap(r *recorder, lap int) time.Duration {
	c.out.buf = c.out.buf[:0]
	base := int32(lap * len(c.p.reqs))
	start := time.Now()
	for i, req := range c.p.reqs {
		if c.p.rds != nil {
			c.p.rds[i].Reset(c.p.bodies[i])
		}
		c.out.code = 0
		s := r.begin("request", base+int32(i), 0)
		c.h.ServeHTTP(&c.out, req)
		r.end(s)
		c.ends[i] = len(c.out.buf)
		c.codes[i] = c.out.code
	}
	return time.Since(start)
}

// lapTrace is what tracing one workload's laps yields.
type lapTrace struct {
	e      *env
	rec    *recorder
	budget map[string]float64
	// Untraced and traced laps alternate, so the tracing overhead compares
	// two lap series that saw the same minutes of the host.
	plain, traced []time.Duration
	lats          []int64 // every root span's duration, ascending
}

// traceLaps replays e's lap n times with a root span per request, each time
// followed by the replay of the same input against probe instances.
func traceLaps(e *env, n int) (*lapTrace, error) {
	t := &lapTrace{e: e, rec: newRecorder(len(e.pool.reqs) * spansPerRequest)}
	rp, err := newReplayer(e, t.rec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmLaps; i++ { // bring the probes to the periodic state
		rp.replayLap(t.rec, 0)
		t.rec.lap = t.rec.lap[:0]
	}
	for lap := 0; lap < n; lap++ {
		t.plain = append(t.plain, e.caller.lap())
		e.attempted += len(e.pool.reqs)
		e.failed += e.caller.verify()
		t.traced = append(t.traced, e.caller.tracedLap(t.rec, lap))
		e.attempted += len(e.pool.reqs)
		e.failed += e.caller.verify()
		for _, s := range t.rec.lap {
			t.lats = append(t.lats, s.End-s.Start)
		}
		rp.replayLap(t.rec, lap)
		t.rec.endLap()
	}
	attempted, failed := rp.check()
	e.attempted += attempted
	e.failed += failed
	slices.Sort(t.lats)
	t.budget = rp.budget(t.rec)
	if why := checkNesting(t.rec.kept); why != "" {
		return nil, fmt.Errorf("%s: trace is malformed: %s", e.cfg.w.name, why)
	}
	return t, nil
}

// perCtx, perCall and perReq spread what a quiet lap spent under a span
// name over the lap's contexts, the spans of that name, or the requests.
func (t *lapTrace) perCtx(v float64) float64 { return v / float64(len(t.e.pool.items)) }
func (t *lapTrace) perReq(v float64) float64 { return v / float64(len(t.e.pool.reqs)) }
func (t *lapTrace) perCall(name string) float64 {
	if n := t.rec.count(name); n > 0 {
		return t.rec.dur(name) / float64(n)
	}
	return 0
}

// layerMetrics reads every layer's time off the spans of the workload whose
// lap exercises that layer, so each number has one definition — the span's —
// and is measured in every traced run, whichever workload it traces.
func layerMetrics(by map[string]*lapTrace, m metrics) error {
	zipf, miss, bmiss := by["get_zipf"], by["get_miss"], by["batch_miss"]
	rget, rbatch := by["ring_get"], by["ring_batch"]

	m["query.intern_ns"] = zipf.perCtx(zipf.rec.dur("query.intern"))
	m["cache.hit_ns"] = zipf.perCtx(zipf.rec.dur("cache.warm"))
	m["serve.get_ns"] = zipf.perReq(zipf.rec.dur("serve.twin"))
	m["serve.get_self_ns"] = zipf.budget["serve.self"]

	// Every lookup of the distinct cycle misses, inserts and evicts; the
	// model call it makes is the lookup span's child.
	m["cache.miss_put_ns"] = miss.perCtx(miss.rec.self("cache.lookup"))
	m["core.suggest_ns"] = miss.perCall("core.suggest")
	m["compiled.descent_ns"] = miss.perCall("compiled.descent")

	m["compiled.batch_descent_ns_per_ctx"] = bmiss.perCtx(bmiss.rec.dur("compiled.descent"))
	m["serve.batch_ns_per_ctx"] = bmiss.perCtx(bmiss.rec.dur("serve.twin"))
	m["serve.batch_self_ns_per_ctx"] = bmiss.budget["serve.self"] / batchSize

	m["fleet.ring_lookup_ns"] = rget.perCtx(rget.rec.dur("fleet.ring_lookup"))
	m["fleet.exchange_ns"] = rget.perCall("fleet.exchange")
	m["fleet.router_get_self_ns"] = rget.perReq(rget.rec.dur("fleet.router_null"))
	m["fleet.router_batch_self_ns_per_ctx"] = rbatch.perCtx(rbatch.rec.dur("fleet.router_null"))
	m["jsonspan.split_ns_per_ctx"] = rbatch.perCtx(rbatch.rec.dur("jsonspan.split"))

	// Counts the real routers kept at the same boundaries.
	m["fleet.failovers"] = 0
	for _, t := range []*lapTrace{rget, rbatch} {
		var rm fleet.ShardRouterMetrics
		if err := getJSON(t.e.ring.router, "/v1/metrics", &rm); err != nil {
			return err
		}
		m["fleet.failovers"] += float64(rm.Failovers)
		if t == rbatch {
			m["fleet.subbatches_per_batch"] = float64(rm.BatchFanouts) / float64(rm.BatchRequests)
		}
	}

	// The handlers' own stage histograms, each read where the stage runs.
	for name, src := range map[string]struct {
		t      *lapTrace
		family string
	}{
		"serve.stage_cache_p50_us":         {zipf, "serve_stage_cache_us"},
		"serve.stage_descent_p50_us":       {miss, "serve_stage_descent_us"},
		"serve.stage_batch_descent_p50_us": {bmiss, "serve_stage_batch_descent_us"},
	} {
		var err error
		if m[name], err = stageP50(src.t.e.handler, src.family); err != nil {
			return err
		}
	}
	return nil
}

// runTraced is the per-layer run: a short untraced lap series for the
// lap-derived numbers, traced laps with their replays — of this workload for
// its layer budget, and of every workload for the layer times — the
// stand-alone probes, and the real process over TCP. End-to-end metrics
// never come from here.
func runTraced(cfg runConfig) (metrics, int, int, error) {
	e, err := setUp(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	defer e.discard()
	m := metrics{}
	contexts := float64(len(e.pool.items))

	// Untraced laps: cache counters, allocation and the lap spread.
	before, err := e.cacheStats()
	if err != nil {
		return nil, 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	laps := e.timeLaps(minLaps)
	runtime.ReadMemStats(&ms1)
	after, err := e.cacheStats()
	if err != nil {
		return nil, 0, 0, err
	}
	lookups := float64(after.Hits - before.Hits + after.Misses - before.Misses)
	m["cache.hit_rate"] = float64(after.Hits-before.Hits) / lookups
	served := contexts * float64(len(laps))
	m["cache.evictions_per_ctx"] = float64(after.Evictions-before.Evictions) / served
	m["cache.entries"] = float64(after.Entries)
	m["model.coverage"] = float64(e.caller.covered) / contexts
	m["go.alloc_bytes_per_ctx"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / served
	m["go.allocs_per_ctx"] = float64(ms1.Mallocs-ms0.Mallocs) / served
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	sorted := sortedCopy(laps)
	var total time.Duration
	for _, d := range laps {
		total += d
	}
	mean := total / time.Duration(len(laps))
	// Time the mean lap spends beyond a quiet one: collector work, plus
	// whatever else the host ran meanwhile.
	m["go.gc_share_pct"] = 100 * (1 - float64(fastOf(sorted))/float64(mean))
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["go.heap_live_mb"] = float64(ms1.HeapAlloc) / (1 << 20)
	p50 := quantileCeil(sorted, 0.5)
	m["client.lap_p50_ns_per_ctx"] = float64(p50.Nanoseconds()) / contexts
	m["client.lap_iqr_pct"] = 100 * float64(quantileCeil(sorted, 0.75)-quantileCeil(sorted, 0.25)) / float64(p50)
	m["client.laps"] = float64(len(laps))

	// Traced laps and their replays, of every workload on the one model.
	by := map[string]*lapTrace{}
	for i := range workloads {
		x, ex, n := &workloads[i], e, tracedLaps
		if x != cfg.w {
			xcfg := cfg
			xcfg.w, n = x, layerLaps
			if ex, err = newEnv(xcfg, e.modelPath); err != nil {
				return nil, 0, 0, fmt.Errorf("%s: %w", x.name, err)
			}
			defer ex.close()
		}
		if by[x.name], err = traceLaps(ex, n); err != nil {
			return nil, 0, 0, err
		}
		printBudget(by[x.name])
		if ex != e {
			e.attempted += ex.attempted
			e.failed += ex.failed
		}
	}
	own := by[cfg.w.name]
	m["serve.unaccounted_ns"] = own.budget["unaccounted"]
	m["client.lat_p50_us"] = float64(quantileCeil(own.lats, 0.5)) / 1e3
	m["client.lat_p99_us"] = float64(quantileCeil(own.lats, 0.99)) / 1e3
	m["trace.overhead_pct"] = 100 * (float64(fastOf(sortedCopy(own.traced)))/float64(fastOf(sortedCopy(own.plain))) - 1)
	if err := layerMetrics(by, m); err != nil {
		return nil, 0, 0, err
	}

	if err := probes(e, m); err != nil {
		return nil, 0, 0, err
	}
	// The real process, in this workload's shape, also answers the lap of
	// the workload that sends the other request kind to the same shape.
	var other *caller
	for i := range workloads {
		if x := &workloads[i]; x.router == cfg.w.router && x.batch != cfg.w.batch {
			other = by[x.name].e.caller
			break
		}
	}
	if err := procMetrics(e, other, m); err != nil {
		return nil, 0, 0, err
	}

	tf := traceFile{Workload: cfg.w.name, Seed: cfg.seed, Requests: len(e.pool.reqs), Budget: own.budget}
	if err := own.rec.write(cfg.trace, tf); err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("# spans of %d of %d traced laps written to %s\n", min(keptLaps, tracedLaps), tracedLaps, cfg.trace)
	return m, e.attempted, e.failed, nil
}

// budgetTolerance is how far the stages of a request may miss its root span
// before the budget is called out as not adding up.
const budgetTolerance = 0.15

// printBudget prints the layer budget of one request: every stage, their
// sum, the root span they should add up to, and the remainder.
func printBudget(t *lapTrace) {
	w, b := t.e.cfg.w, t.budget
	names := make([]string, 0, len(b))
	for name := range b {
		if name != "request" && name != "sum" && name != "unaccounted" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("# layer budget, %s: ns per request in a quiet lap of %d traced (clock read %.0f ns removed)\n", w.name, t.rec.laps, t.rec.clock)
	for _, name := range append(names, "sum", "request", "unaccounted") {
		fmt.Printf("#   %-20s %10.1f\n", name, b[name])
	}
	share := b["unaccounted"] / b["request"]
	verdict := "within"
	if share > budgetTolerance || share < -budgetTolerance {
		verdict = "OUTSIDE"
		fmt.Fprintf(os.Stderr, "bench: %s: stages miss the root span by %.1f%%\n", w.name, 100*share)
	}
	fmt.Printf("#   unaccounted is %.1f%% of the request, %s the %.0f%% tolerance\n", 100*share, verdict, 100*budgetTolerance)
}
