package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/logfmt"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Stand-alone probes: layer entry points that no workload's lap reaches
// (loading, reloading, the parallel descent, A/B routing, the ingestion
// loop) or that are too small to span (one histogram record). Each makes
// probePasses passes and reports the fastest, for the reason laps do. Every
// layer a lap does reach is timed by the traced replay instead (replay.go).

const (
	probePasses   = 11
	ingestRecords = 20000
)

// fastestPass runs fn passes times and returns the fastest pass divided by
// ops, in nanoseconds.
func fastestPass(ops int, fn func()) float64 {
	var best time.Duration
	for i := 0; i < probePasses; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(ops)
}

// getJSON issues GET path against h in-process and decodes the JSON answer.
func getJSON(h http.Handler, path string, v any) error {
	body, err := getBody(h, http.MethodGet, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func getBody(h http.Handler, method, path string) ([]byte, error) {
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		return nil, err
	}
	out := sink{hdr: make(http.Header)}
	h.ServeHTTP(&out, req)
	if out.code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, out.code, out.buf)
	}
	return out.buf, nil
}

// cacheStats sums the result-cache counters of the workload's handler (or
// of every shard handler behind the router), read through /v1/metrics.
func (e *env) cacheStats() (cache.Stats, error) {
	handlers := []http.Handler{e.handler}
	if e.ring != nil {
		handlers = nil
		for _, h := range e.ring.shards {
			handlers = append(handlers, h)
		}
	}
	var sum cache.Stats
	for _, h := range handlers {
		var mr serve.MetricsResponse
		if err := getJSON(h, "/v1/metrics", &mr); err != nil {
			return sum, err
		}
		sum.Hits += mr.Cache.Hits
		sum.Misses += mr.Cache.Misses
		sum.Evictions += mr.Cache.Evictions
		sum.Entries += mr.Cache.Entries
	}
	return sum, nil
}

// stageP50 reads the p50 of one of the handler's own stage histograms out of
// its Prometheus exposition, interpolating inside the power-of-two bucket
// that holds the middle sample as histogram_quantile does.
func stageP50(h http.Handler, family string) (float64, error) {
	body, err := getBody(h, http.MethodGet, "/v1/metrics?format=prometheus")
	if err != nil {
		return 0, err
	}
	fams, err := obs.ParsePrometheus(body)
	if err != nil {
		return 0, err
	}
	fam := fams[family]
	if fam == nil {
		return 0, fmt.Errorf("no %s in the Prometheus exposition", family)
	}
	var total float64
	for _, s := range fam.Samples {
		if strings.HasSuffix(s.Name, "_count") {
			total = s.Value
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("%s recorded nothing", family)
	}
	var lo, below float64 // the previous bucket's bound and cumulative count
	for _, s := range fam.Samples {
		if s.Le == "" || s.Le == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(s.Le, 64)
		if err != nil {
			return 0, err
		}
		if s.Value >= total/2 {
			return lo + (le-lo)*(total/2-below)/(s.Value-below), nil
		}
		lo, below = le, s.Value
	}
	return lo, nil
}

// probes measures the stand-alone layer metrics into m, on e's model and
// the contexts of e's lap.
func probes(e *env, m metrics) error {
	rec, cm := e.rec, e.rec.CompiledModel()
	if cm == nil {
		return fmt.Errorf("model has no compiled form to probe")
	}
	n := len(e.pool.items)
	ids, ns := make([]query.Seq, n), make([]int, n)
	for i, it := range e.pool.items {
		ids[i], ns[i] = it.ids, topN
	}

	// compiled: the parallel descent only has something to run on with a
	// second P.
	discard := func(int, []model.Prediction) {}
	runtime.GOMAXPROCS(2)
	seqNs := fastestPass(n, func() {
		for lo := 0; lo < n; lo += batchSize {
			cm.PredictBatch(ids[lo:lo+batchSize], ns[lo:lo+batchSize], discard)
		}
	})
	parNs := fastestPass(n, func() {
		for lo := 0; lo < n; lo += batchSize {
			cm.PredictBatchParallel(ids[lo:lo+batchSize], ns[lo:lo+batchSize], 2, discard)
		}
	})
	runtime.GOMAXPROCS(1)
	m["compiled.batch_parallel_x"] = seqNs / parNs
	m["compiled.blob_bytes"] = float64(rec.LoadInfo().BlobBytes)
	m["compiled.nodes"] = float64(cm.Nodes())

	// core: load to first answer
	best := time.Duration(0)
	for i := 0; i < 50; i++ {
		start := time.Now()
		r, err := core.LoadAnyPath(e.modelPath, core.LoadOptions{})
		if err != nil {
			return err
		}
		core.RecommendIDs(r, ids[0], topN)
		d := time.Since(start)
		r.Close()
		if i == 0 || d < best {
			best = d
		}
	}
	m["core.load_ms"] = float64(best.Nanoseconds()) / 1e6
	m["core.train_s"] = e.prep.TrainSeconds
	m["core.save_ms"] = e.prep.SaveMillis
	m["core.model_file_bytes"] = float64(e.prep.FileBytes)

	// serve: hot reload through a handler of its own.
	h := newServeHandler(rec, e.modelPath, 0)
	reload := time.Duration(0)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := getBody(h, http.MethodPost, "/v1/reload"); err != nil {
			return err
		}
		if d := time.Since(start); i == 0 || d < reload {
			reload = d
		}
	}
	m["serve.reload_ms"] = float64(reload.Nanoseconds()) / 1e6

	// fleet: the A/B router's arm choice.
	reg := fleet.NewRegistry(0)
	for _, name := range []string{"champion", "challenger"} {
		if _, err := reg.Add(name, rec, nil); err != nil {
			return err
		}
	}
	ab, err := fleet.NewRouter(reg, fleet.ArmSpec{Name: "champion", Weight: 9}, fleet.ArmSpec{Name: "challenger", Weight: 1})
	if err != nil {
		return err
	}
	arm := 0
	m["fleet.route_ab_ns"] = fastestPass(n, func() {
		for _, c := range ids {
			arm += ab.Route(c)
		}
	})
	ab.Close()

	// obs
	var hist obs.Histogram
	m["obs.hist_record_ns"] = fastestPass(n, func() {
		for i := 0; i < n; i++ {
			hist.Record(int64(i & 0xffff))
		}
	})
	tracer := obs.NewTracer(512, &hist)
	m["obs.trace_span_ns"] = fastestPass(n, func() {
		for i := 0; i < n; i++ {
			tr := tracer.Start()
			tr.End(tr.Begin("probe"), "ok")
			tracer.Finish(tr, false)
		}
	})

	return streamProbes(e, m)
}

// streamProbes times the ingestion loop draining a fixed log once, and a
// write-log segment append.
func streamProbes(e *env, m metrics) error {
	dir, err := os.MkdirTemp(e.cfg.workdir, "ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	gen, err := generatorFor(e.cfg.seed + 2)
	if err != nil {
		return err
	}
	logPath := filepath.Join(dir, "queries.log")
	f, err := os.Create(logPath)
	if err != nil {
		return err
	}
	wr := logfmt.NewWriter(f)
	for wr.Count() < ingestRecords {
		for _, r := range gen.Records(gen.Session()) {
			if wr.Count() == ingestRecords {
				break
			}
			if err := wr.Write(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := wr.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		walPath := filepath.Join(dir, fmt.Sprintf("ingest-%d.wal", i))
		start := time.Now()
		ing, err := stream.NewIngester(stream.Config{
			LogPath:           logPath,
			WALPath:           walPath,
			ModelPath:         filepath.Join(dir, "model.bin"),
			Train:             core.Config{ReductionThreshold: 0},
			RecompileSessions: 1 << 62, // count updates only, as BenchmarkIngestSegment does
		})
		if err != nil {
			return err
		}
		for {
			progressed, err := ing.Step()
			if err != nil {
				ing.Close()
				return err
			}
			if !progressed {
				break
			}
		}
		if err := ing.Close(); err != nil {
			return err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	m["stream.ingest_records_per_s"] = ingestRecords / best.Seconds()

	wal, _, err := stream.OpenWAL(filepath.Join(dir, "append.wal"), stream.WALHeader{})
	if err != nil {
		return err
	}
	defer wal.Close()
	entry := stream.SegmentEntry{Completed: [][]string{{"nokia n73", "nokia n73 themes"}, {"o2", "o2 mobile"}}}
	const appends = 500
	start := time.Now()
	for i := 0; i < appends; i++ {
		entry.Seq = uint64(i + 1)
		if err := wal.AppendSegment(entry); err != nil {
			return err
		}
	}
	m["stream.wal_append_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / appends
	return nil
}
