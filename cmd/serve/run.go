package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// process is what one role runs: an HTTP surface, the loops beside it, and
// what to release once they have stopped.
type process struct {
	handler http.Handler
	onHUP   func()
	// main, when set, is the role's own work (-role ingest's loop): its
	// return ends run, as the end of ctx does.
	main func(context.Context) error
	// loops run beside the HTTP surface (the embedded ingestion loop and
	// ramp) until run has drained it.
	loops []func(context.Context)
	// closers release, last first, what the role opened.
	closers []func() error
}

func (p *process) close() error {
	var errs []error
	for i := len(p.closers) - 1; i >= 0; i-- {
		errs = append(errs, p.closers[i]())
	}
	p.closers = nil
	return errors.Join(errs...)
}

// run builds cfg's role and serves it on ln (nil: no HTTP surface) until ctx
// ends or the role's own work returns, handing every value from hup to the
// role's reload. It then drains ln's connections within cfg.drain, stops and
// waits for every goroutine it started, closes what the role opened, and
// returns what failed on the way, joined; a stop by ctx is no failure. cfg
// must have passed validate.
func run(ctx context.Context, cfg *config, ln net.Listener, hup <-chan os.Signal) error {
	p, err := build(cfg)
	if err != nil {
		if ln != nil {
			ln.Close()
		}
		return err
	}
	loopCtx, stopLoops := context.WithCancel(context.WithoutCancel(ctx))
	var loops sync.WaitGroup
	for _, loop := range p.loops {
		loops.Add(1)
		go func() {
			defer loops.Done()
			loop(loopCtx)
		}()
	}

	done := make(chan error, 2) // from the HTTP server and p.main
	running := 0
	var srv *http.Server
	if ln != nil {
		srv = &http.Server{Handler: p.handler, ReadHeaderTimeout: 5 * time.Second}
		running++
		go func() {
			err := srv.Serve(ln)
			if errors.Is(err, http.ErrServerClosed) {
				err = nil
			}
			done <- err
		}()
		log.Printf("role %s listening on %s", cfg.role, ln.Addr())
	}
	mainCtx, stopMain := context.WithCancel(ctx)
	if p.main != nil {
		running++
		go func() {
			err := p.main(mainCtx)
			if mainCtx.Err() != nil && errors.Is(err, mainCtx.Err()) {
				err = nil // stopped, not failed
			}
			done <- err
		}()
	}

	var errs []error
	for waiting := true; waiting; {
		select {
		case <-ctx.Done():
			waiting = false
		case <-hup:
			p.onHUP()
		case err := <-done:
			running--
			errs = append(errs, err)
			waiting = false
		}
	}
	stopMain()
	if srv != nil {
		log.Printf("draining connections (up to %s)", cfg.drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		if err := srv.Shutdown(drainCtx); err != nil {
			errs = append(errs, fmt.Errorf("drain: %w", err))
			srv.Close()
		}
		cancel()
	}
	for ; running > 0; running-- {
		errs = append(errs, <-done)
	}
	stopLoops()
	loops.Wait()
	return errors.Join(append(errs, p.close())...)
}

// build assembles cfg's role. On failure it releases whatever it had opened.
func build(cfg *config) (p *process, err error) {
	p = &process{onHUP: func() { log.Printf("SIGHUP ignored by -role %s", cfg.role) }}
	switch cfg.role {
	case "router":
		err = p.buildRouter(cfg)
	case "ingest":
		err = p.buildIngest(cfg)
	default:
		err = p.buildServe(cfg)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	if cfg.pprof {
		// Explicit registrations (not the net/http/pprof DefaultServeMux side
		// effect) so only the profiling endpoints are added; everything else
		// still routes to the role handler.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", p.handler)
		p.handler = mux
		log.Print("pprof: /debug/pprof/ mounted")
	}
	return p, nil
}

// loadModel loads a model file from cmd/train through the mmap fast path:
// the compiled serving form is mapped, not decoded, which makes cold starts
// and SIGHUP reloads near-instant and shares trie pages across server
// processes. A file in any format but the current one is refused: retrain.
// Every model file holds a compiled blob, quantised (CPS5): the log line
// gives its shape.
func loadModel(path string) (core.Recommender, error) {
	rec, err := core.LoadPath(path)
	if err != nil {
		return nil, err
	}
	li, cm := rec.LoadInfo(), rec.CompiledModel()
	log.Printf("model load: path=%s mode=%s version=%s blob=%dB took=%s: %d known queries, quantised compiled PST with %d nodes / %d followers (depth %d, %d components)",
		path, li.Mode, li.Version, li.BlobBytes, li.Duration.Round(time.Microsecond),
		rec.Dict().Len(), cm.Nodes(), cm.Followers(), cm.Depth(), cm.Components())
	return rec, nil
}

// buildServe assembles the serve/shard role: a fleet registry and router
// over the arms, with the ingestion loop and ramp embedded when -ingest-log
// is set.
func (p *process) buildServe(cfg *config) error {
	// One registry + tracer for the whole process: the HTTP handler, the
	// embedded ingest loop and the auto-ramp all record into the same
	// Prometheus exposition and the same tail-sampled trace ring. The tracer
	// tail-samples against the handler's overall request-latency histogram.
	oreg := obs.NewRegistry()
	tracer := obs.NewTracer(512, oreg.Histogram("serve_http_request_us"))
	opts := serve.Options{DefaultN: cfg.topN, Obs: oreg, Tracer: tracer}
	if !cfg.quiet {
		opts.Logger = log.Default()
	}
	reg := fleet.NewRegistry(cfg.cacheCap)
	var champion core.Recommender
	armSpecs := make([]fleet.ArmSpec, len(cfg.armSpecs))
	for i, spec := range cfg.armSpecs {
		rec, err := loadModel(spec.path)
		if err != nil {
			return fmt.Errorf("arm %q: %w", spec.name, err)
		}
		path := spec.path
		if _, err := reg.Add(spec.name, rec, func() (core.Recommender, error) { return loadModel(path) }); err != nil {
			return err
		}
		if champion == nil {
			champion = rec
		}
		armSpecs[i] = fleet.ArmSpec{Name: spec.name, Weight: spec.weight}
	}
	rt, err := fleet.NewRouter(reg, armSpecs...)
	if err != nil {
		return err
	}
	p.closers = append(p.closers, func() error { rt.Close(); return nil })
	p.onHUP = func() { reloadAll(rt) }
	for _, as := range rt.ArmStats() {
		log.Printf("fleet arm %q: weight %d (%.1f%% of traffic)", as.Name, as.Weight, 100*as.Share)
	}
	for _, s := range rt.ShadowSlots() {
		log.Printf("fleet shadow %q: scored asynchronously, serves no traffic", s.Name())
	}
	if cfg.ingest.logPath != "" {
		if opts.IngestStatus, err = p.embedIngest(cfg, rt, champion, oreg, tracer); err != nil {
			return err
		}
	}
	opts.Fleet = rt
	p.handler = serve.New(champion, opts)
	return nil
}

// reloadAll is the SIGHUP behaviour: reload every slot that has a loader,
// then advance the interning base. Dictionary-incompatible replacements are
// refused (the operator can force over HTTP); the old model keeps serving
// either way.
func reloadAll(rt *fleet.Router) {
	for _, slot := range rt.Registry().Slots() {
		if !slot.Reloadable() {
			continue
		}
		gen, err := slot.Reload(false)
		if err != nil {
			log.Printf("SIGHUP reload of %q failed (still serving old model): %v", slot.Name(), err)
			continue
		}
		log.Printf("SIGHUP reload ok: model %q at generation %d", slot.Name(), gen)
	}
	if err := rt.RefreshBase(); err != nil {
		log.Printf("interning base not advanced: %v", err)
	}
}

// embedIngest runs the ingestion loop inside the serving process: tail the
// query log behind the write-log, recompile, and push snapshots into the
// -ingest-arm slot in-process (the same swap-and-refresh path POST /v1/reload
// takes, minus the HTTP hop). With -ramp it also runs the auto-ramp
// scheduler. Ingest steps and ramp transitions record into the shared
// registry and tracer, next to the request traffic. It returns the
// /v1/ingest status hook.
func (p *process) embedIngest(cfg *config, rt *fleet.Router, champion core.Recommender, reg *obs.Registry, tracer *obs.Tracer) (func() any, error) {
	in := cfg.ingest
	slot := rt.Registry().Slot(in.arm)
	push := func(modelPath string) error {
		gen, err := slot.Reload(false)
		if err != nil {
			return err
		}
		if err := rt.RefreshBase(); err != nil {
			log.Printf("ingest: interning base not advanced after push: %v", err)
		}
		log.Printf("ingest: pushed %s into arm %q (generation %d)", modelPath, in.arm, gen)
		return nil
	}
	ing, err := p.openIngester(in, champion.Dict().Strings(), push, reg, tracer)
	if err != nil {
		return nil, err
	}
	p.loops = append(p.loops, func(ctx context.Context) {
		if err := ing.Run(ctx, in.poll); err != nil && ctx.Err() == nil {
			log.Printf("ingest: loop stopped: %v", err)
		}
	})

	var ramp *fleet.Ramp
	if cfg.rampSteps != nil {
		ramp, err = fleet.NewRamp(rt, in.arm, fleet.RampPolicy{
			Steps:           cfg.rampSteps,
			Hold:            in.rampHold,
			MinSamples:      in.rampMinSamples,
			MaxTop1Mismatch: in.rampMaxMismatch,
			MinRankOverlap:  in.rampMinOverlap,
			Promote:         in.rampPromote,
		})
		if err != nil {
			return nil, err
		}
		ramp.SetObservability(reg, tracer)
		p.loops = append(p.loops, func(ctx context.Context) { ramp.Run(ctx, in.rampEvery) })
		log.Printf("ramp: arm %q walks %v (hold %s, %d shadow samples to start, promote=%v)",
			in.arm, cfg.rampSteps, in.rampHold, in.rampMinSamples, in.rampPromote)
	}

	type ingestView struct {
		stream.Status
		Ramp *fleet.RampStatus `json:"ramp,omitempty"`
	}
	return func() any {
		v := ingestView{Status: ing.Status()}
		if ramp != nil {
			rs := ramp.Status()
			v.Ramp = &rs
		}
		return v
	}, nil
}

// buildIngest assembles -role ingest: the ingestion loop on its own, seeded
// with -model's vocabulary (none when -model is empty), pushing each recompile
// at -ingest-push over HTTP, its admin surface on the listener.
func (p *process) buildIngest(cfg *config) error {
	in := cfg.ingest
	// Tail-sample against the segment-fold histogram: a retained ingest trace
	// is one whose whole step ran slower than recent p99 folds (or errored).
	oreg := obs.NewRegistry()
	tracer := obs.NewTracer(128, oreg.Histogram("ingest_segment_us"))
	var base []string
	if cfg.modelPath != "" {
		seed, err := core.LoadPath(cfg.modelPath)
		if err != nil {
			return fmt.Errorf("-model %s: %w", cfg.modelPath, err)
		}
		base = seed.Dict().Strings()
		seed.Close()
		log.Printf("trainer seeded with %d base queries from %s (snapshots stay reload-compatible)", len(base), cfg.modelPath)
	}
	var push func(string) error
	if in.push != "" {
		target := in.push + "/v1/reload?model=" + url.QueryEscape(in.arm)
		client := &http.Client{Timeout: 30 * time.Second}
		push = func(modelPath string) error {
			resp, err := client.Post(target, "", nil)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST %s: HTTP %d", target, resp.StatusCode)
			}
			log.Printf("ingest: pushed %s at %s", modelPath, target)
			return nil
		}
		p.closers = append(p.closers, func() error { client.CloseIdleConnections(); return nil })
	}
	ing, err := p.openIngester(in, base, push, oreg, tracer)
	if err != nil {
		return err
	}
	p.handler = adminHandler(oreg, tracer, ing.Status)
	if !in.once {
		p.main = func(ctx context.Context) error { return ing.Run(ctx, in.poll) }
		return nil
	}
	p.main = func(ctx context.Context) error {
		for ctx.Err() == nil {
			progressed, err := ing.Step()
			if err != nil {
				return err
			}
			if !progressed {
				st := ing.Status()
				log.Printf("ingest: drained: %d sessions (%d still open) from %d log bytes, %d recompiles, %d pushes",
					st.Sessions, st.OpenSessions, st.LogOffset, st.Recompiles, st.Pushes)
				return nil
			}
		}
		return ctx.Err()
	}
	return nil
}

// openIngester opens the ingestion loop both roles run, creating the query
// log if it does not exist yet (the traffic tee may start later), and
// registers its Close.
func (p *process) openIngester(in ingestOpts, base []string, push func(string) error, reg *obs.Registry, tracer *obs.Tracer) (*stream.Ingester, error) {
	f, err := os.OpenFile(in.logPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("-ingest-log: %w", err)
	}
	f.Close()
	ing, err := stream.NewIngester(stream.Config{
		LogPath:           in.logPath,
		WALPath:           in.walPath,
		ModelPath:         in.modelOut,
		BaseVocab:         base,
		Train:             core.Config{ReductionThreshold: in.threshold, SessionGap: in.gap},
		RecompileSessions: in.recompile,
		Push:              push,
		Obs:               reg,
		Tracer:            tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("-ingest-wal %s: %w", in.walPath, err)
	}
	p.closers = append(p.closers, ing.Close)
	if st := ing.Status(); st.Replayed > 0 || st.TornTailBytes > 0 {
		log.Printf("ingest: write-log replayed %d entries (%d sessions), %d torn bytes discarded, resuming at offset %d",
			st.Replayed, st.Sessions, st.TornTailBytes, st.LogOffset)
	}
	log.Printf("ingest: tailing %s (write-log %s, recompile every %d sessions into arm %q)",
		in.logPath, in.walPath, in.recompile, in.arm)
	return ing, nil
}

// adminHandler serves -role ingest's admin surface by the one path rule
// (obs.Admin): the loop Status as the JSON of health, of /v1/metrics and of
// /v1/ingest, Prometheus text on /metrics, and retained ingest-step traces
// on /v1/traces.
func adminHandler(reg *obs.Registry, tracer *obs.Tracer, status func() stream.Status) http.Handler {
	writeStatus := func(w http.ResponseWriter, r *http.Request) { obs.WriteJSON(w, http.StatusOK, status()) }
	admin := &obs.Admin{Registry: reg, Tracer: tracer, Health: writeStatus, Metrics: writeStatus}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/ingest" {
			writeStatus(w, r)
			return
		}
		admin.ServeHTTP(w, r)
	})
}

// buildRouter assembles the router role: a consistent-hash ring over an
// in-process loopback (integer -shards, sharing one -model) or remote shard
// URLs, replicated and failure-policied by -replicas, -shard-timeout and
// -hedge-after.
func (p *process) buildRouter(cfg *config) error {
	p.onHUP = func() { log.Print("SIGHUP ignored: POST /v1/reload to the router (broadcast to all shards)") }
	var tr fleet.Transport
	n, err := strconv.Atoi(cfg.shards)
	if err == nil {
		rec, err := loadModel(cfg.modelPath)
		if err != nil {
			return err
		}
		perShardCache := 0
		if cfg.cacheCap > 0 {
			perShardCache = (cfg.cacheCap + n - 1) / n
		}
		handlers := make([]http.Handler, n)
		for i := range handlers {
			handlers[i] = serve.New(rec, serve.Options{
				DefaultN:      cfg.topN,
				CacheCapacity: perShardCache,
				// POST /v1/reload on the router broadcasts here, so a loopback
				// ring hot-reloads like any other deployment. Each partition
				// remaps the file independently; pages stay shared.
				ReloadFunc: func() (core.Recommender, error) { return loadModel(cfg.modelPath) },
			})
		}
		tr = fleet.NewLoopbackTransport(handlers...)
	} else {
		urls := strings.Split(cfg.shards, ",")
		n = len(urls)
		// nil client: NewHTTPTransport supplies dial/response timeouts and a
		// sized connection pool; -shard-timeout bounds each attempt via ctx.
		ht, err := fleet.NewHTTPTransport(urls, nil)
		if err != nil {
			return err
		}
		p.closers = append(p.closers, func() error { ht.CloseIdleConnections(); return nil })
		tr = ht
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(n, 0), tr,
		fleet.RouterOptions{Replicas: cfg.replicas, ShardTimeout: cfg.shardTimeout, HedgeAfter: cfg.hedgeAfter})
	if err != nil {
		return err
	}
	log.Printf("ring: %d shards (-shards %s), %d virtual nodes/shard, R=%d",
		n, cfg.shards, fleet.DefaultVirtualNodes, router.Replicas())
	p.handler = router
	return nil
}
