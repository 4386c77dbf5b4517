// Command serve exposes trained recommendation models over HTTP — the
// paper's real-time deployment scenario, hardened for production traffic:
// a sharded LRU result cache, request metrics, hot model reload, graceful
// shutdown, and (since the fleet subsystem) multi-model A/B serving, shadow
// scoring and consistent-hash shard fan-out.
//
// Roles:
//
//	serve (default)  a serving process over a fleet of one or more models
//	shard            alias of serve for replicas behind a -role router
//	router           consistent-hash fan-out over N shard replicas
//
// Single model — the one arm of a fleet, as if -arms default=model.bin:
//
//	serve -model model.bin [-addr :8080] [-n 5] [-cache 16384] [-quiet]
//
// A/B + shadow fleet (first arm is the champion; weight 0 = shadow-only):
//
//	serve -arms champion=model.bin:90,challenger=model2.bin:10,next=model3.bin:0
//
// Shard fan-out — in-process loopback ring (one mmapped model, 3 partitions):
//
//	serve -role router -shards 3 -model model.bin
//
// Shard fan-out — distributed (each URL runs `serve -role shard -model ...`):
//
//	serve -role router -shards http://shard-0:8080,http://shard-1:8080
//
// Then:
//
//	curl 'localhost:8080/suggest?q=nokia+n73&q=nokia+n73+themes'
//	curl -X POST localhost:8080/suggest/batch -d '{"requests":[{"context":["nokia n73"]}]}'
//	curl localhost:8080/v1/metrics       # JSON; /metrics is the Prometheus exposition
//	curl localhost:8080/v1/models        # registry: models, roles, dict hashes, divergence
//	curl 'localhost:8080/v1/route?q=o2'  # which arm/shard owns this context
//
// Hot reload: retrain with cmd/train, overwrite the model file, then either
// `kill -HUP <pid>` (every arm reloads from its file) or
// `curl -X POST 'localhost:8080/v1/reload?model=<name>'` (one arm; a
// single -model process may omit model=). A replacement whose dictionary is
// not an ID-preserving extension of the served one is refused with 409 —
// append `&force=1` to replace the vocabulary deliberately. The new model is
// swapped in behind an atomic pointer; in-flight requests finish on the old
// one and no traffic is dropped. SIGINT/SIGTERM drain connections before
// exiting.
//
// -map-willneed and -mlock request best-effort kernel paging hints for the
// mmapped compiled blob (readahead / eviction pinning); the applied outcome
// is logged and surfaced in /healthz as model_map_advice.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// loadOpts carries the flag-gated mmap paging hints into every model load.
var loadOpts core.LoadOptions

// loadModel loads a model file from cmd/train through the mmap fast path:
// the compiled serving form is mapped, not decoded, which makes cold starts
// and SIGHUP reloads near-instant and shares trie pages across server
// processes. A file in any format but the current one is refused: retrain.
func loadModel(path string) (core.Recommender, error) {
	rec, err := core.LoadPathWith(path, loadOpts)
	if err != nil {
		return nil, err
	}
	li := rec.LoadInfo()
	advice := li.MapAdvice
	if advice == "" {
		advice = "none"
	}
	log.Printf("model load: path=%s mode=%s version=%s blob=%dB advice=%s took=%s",
		path, li.Mode, li.Version, li.BlobBytes, advice, li.Duration.Round(time.Microsecond))
	return rec, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		role      = flag.String("role", "serve", "process role: serve, shard (replica behind a router) or router (consistent-hash fan-out)")
		modelPath = flag.String("model", "model.bin", "model file from cmd/train (served as the one arm \"default\" without -arms, or the shared model of a loopback ring)")
		arms      = flag.String("arms", "", "fleet arms 'name=path[:weight],...': first arm is the champion, weight 0 = shadow-scored only (default weight 1)")
		shards    = flag.String("shards", "", "router backends: an integer N for an in-process loopback ring over -model, or comma-separated shard base URLs")
		replicas  = flag.Int("replicas", 1, "router replication factor R: each key range maps to R distinct shards and fails over along the list (1 = off)")
		shardTO   = flag.Duration("shard-timeout", 2*time.Second, "router per-attempt deadline before failing over to the next replica (0 = transport default only)")
		hedge     = flag.Duration("hedge-after", 0, "router hedged GETs: fire the next replica after this delay and take the first success (0 = off, negative = auto from live p99)")
		addr      = flag.String("addr", ":8080", "listen address")
		topN      = flag.Int("n", 5, "default suggestion count")
		cacheCap  = flag.Int("cache", 0, "result cache capacity (0 = default; loopback rings split it across shards)")
		quiet     = flag.Bool("quiet", false, "disable per-request logging")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
		willNeed  = flag.Bool("map-willneed", false, "madvise(WILLNEED) the mmapped compiled blob: asynchronous readahead instead of first-touch page faults")
		mlock     = flag.Bool("mlock", false, "mlock(2) the mmapped compiled blob: pin trie pages against eviction (needs RLIMIT_MEMLOCK)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving address (keep off on exposed listeners)")
	)
	var ingest ingestOpts
	flag.StringVar(&ingest.logPath, "ingest-log", "", "embed the streaming ingestion loop: tail this query log, retrain and push into the -ingest-arm slot (declared in -arms; see cmd/ingest for the standalone loop)")
	flag.StringVar(&ingest.walPath, "ingest-wal", "ingest.wal", "ingestion write-log path (crash-replayed on restart)")
	flag.StringVar(&ingest.modelOut, "ingest-model", "challenger.bin", "recompiled snapshot output path")
	flag.StringVar(&ingest.arm, "ingest-arm", "challenger", "fleet arm reloaded in-process on every recompile")
	flag.DurationVar(&ingest.gap, "ingest-gap", 30*time.Minute, "ingestion session gap")
	flag.Uint64Var(&ingest.recompile, "ingest-recompile", 5000, "completed sessions between background recompiles")
	flag.IntVar(&ingest.threshold, "ingest-threshold", 2, "drop session patterns seen fewer times at recompile (-1 = keep all)")
	flag.DurationVar(&ingest.poll, "ingest-poll", 200*time.Millisecond, "tail poll interval when caught up")
	flag.StringVar(&ingest.rampSteps, "ramp", "", "auto-ramp weight schedule for -ingest-arm, comma-separated ascending weights e.g. '1,5,25' (empty = pushes stay shadow-only)")
	flag.DurationVar(&ingest.rampHold, "ramp-hold", 10*time.Minute, "minimum time at each ramp step before advancing")
	flag.DurationVar(&ingest.rampEvery, "ramp-every", 15*time.Second, "ramp scheduler tick interval")
	flag.Uint64Var(&ingest.rampMinSamples, "ramp-min-samples", 500, "shadow samples required before the challenger takes its first step")
	flag.Float64Var(&ingest.rampMaxMismatch, "ramp-max-mismatch", 0, "freeze the ramp when the challenger's top-1 mismatch rate exceeds this (0 = off)")
	flag.Float64Var(&ingest.rampMinOverlap, "ramp-min-overlap", 0, "freeze the ramp when mean rank overlap falls below this (0 = off)")
	flag.BoolVar(&ingest.rampPromote, "ramp-promote", false, "after the final ramp step's hold, swap the challenger into the champion slot and advance the interning base")
	flag.Parse()
	loadOpts = core.LoadOptions{MapWillNeed: *willNeed, MapLock: *mlock}

	var handler http.Handler
	var onHUP func()
	switch *role {
	case "serve", "shard":
		var rt *fleet.Router
		handler, rt = buildServeHandler(*modelPath, *arms, *topN, *cacheCap, *quiet, ingest)
		onHUP = func() { reloadAll(rt) }
	case "router":
		ropts := fleet.RouterOptions{
			Replicas:     *replicas,
			ShardTimeout: *shardTO,
			HedgeAfter:   *hedge,
		}
		handler = buildRouterHandler(*shards, *modelPath, *topN, *cacheCap, ropts)
		onHUP = func() { log.Print("SIGHUP ignored: POST /v1/reload to the router (broadcast to all shards)") }
	default:
		log.Fatalf("unknown -role %q (want serve, shard or router)", *role)
	}

	if *pprofOn {
		// Explicit registrations (not the net/http/pprof DefaultServeMux side
		// effect) so only the profiling endpoints are added; everything else
		// still routes to the role handler.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Print("pprof: /debug/pprof/ mounted")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("role %s listening on %s", *role, *addr)

	// SIGHUP hot-reloads model files; SIGINT/SIGTERM drain and exit.
	reload := make(chan os.Signal, 1)
	signal.Notify(reload, syscall.SIGHUP)
	go func() {
		for range reload {
			onHUP()
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case sig := <-stop:
		log.Printf("%s: draining connections (up to %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	log.Print("bye")
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

// buildServeHandler assembles the serve/shard role: a fleet registry and
// router over -arms, or over the one arm "default" serving -model.
func buildServeHandler(modelPath, arms string, topN, cacheCap int, quiet bool, ingest ingestOpts) (*serve.Handler, *fleet.Router) {
	// One registry + tracer for the whole process: the HTTP handler, the
	// embedded ingest loop and the auto-ramp all record into the same
	// Prometheus exposition and the same tail-sampled trace ring. The tracer
	// tail-samples against the handler's overall request-latency histogram.
	oreg := obs.NewRegistry()
	tracer := obs.NewTracer(512, oreg.Histogram("serve_http_request_us"))
	opts := serve.Options{DefaultN: topN, Obs: oreg, Tracer: tracer}
	if !quiet {
		opts.Logger = log.Default()
	}
	specs := []armSpec{{name: "default", path: modelPath, weight: 1}}
	if arms != "" {
		var err error
		if specs, err = parseArms(arms); err != nil {
			log.Fatal(err)
		}
	}
	reg := fleet.NewRegistry(cacheCap)
	var champion core.Recommender
	for _, spec := range specs {
		rec, err := loadModel(spec.path)
		if err != nil {
			log.Fatalf("arm %q: %v", spec.name, err)
		}
		path := spec.path
		if _, err := reg.Add(spec.name, rec, func() (core.Recommender, error) { return loadModel(path) }); err != nil {
			log.Fatal(err)
		}
		if champion == nil {
			champion = rec
		}
		logModelShape(spec.name, rec)
	}
	armSpecs := make([]fleet.ArmSpec, len(specs))
	for i, spec := range specs {
		armSpecs[i] = fleet.ArmSpec{Name: spec.name, Weight: spec.weight}
	}
	rt, err := fleet.NewRouter(reg, armSpecs...)
	if err != nil {
		log.Fatal(err)
	}
	for _, as := range rt.ArmStats() {
		log.Printf("fleet arm %q: weight %d (%.1f%% of traffic)", as.Name, as.Weight, 100*as.Share)
	}
	for _, s := range rt.ShadowSlots() {
		log.Printf("fleet shadow %q: scored asynchronously, serves no traffic", s.Name())
	}
	if ingest.logPath != "" {
		opts.IngestStatus = startIngestLoop(rt, champion, ingest, oreg, tracer)
	}
	opts.Fleet = rt
	return serve.New(champion, opts), rt
}

// ingestOpts carries the -ingest-* / -ramp-* flags into the embedded
// streaming ingestion loop.
type ingestOpts struct {
	logPath, walPath, modelOut, arm string
	gap, poll, rampHold, rampEvery  time.Duration
	recompile, rampMinSamples       uint64
	threshold                       int
	rampSteps                       string
	rampMaxMismatch, rampMinOverlap float64
	rampPromote                     bool
}

// startIngestLoop embeds the cmd/ingest loop in the serving process: tail the
// query log behind the write-log, recompile, and push snapshots into the
// challenger slot in-process (the same swap-and-refresh path POST /v1/reload
// takes, minus the HTTP hop). With -ramp it also runs the auto-ramp
// scheduler. Ingest steps and ramp transitions record into the shared
// registry and tracer, next to the request traffic. Returns the /v1/ingest
// status hook.
func startIngestLoop(rt *fleet.Router, champion core.Recommender, io ingestOpts, reg *obs.Registry, tracer *obs.Tracer) func() any {
	slot := rt.Registry().Slot(io.arm)
	if slot == nil {
		log.Fatalf("-ingest-arm %q is not a registered fleet arm (declare it in -arms, weight 0)", io.arm)
	}
	// The log may not exist yet at boot (the traffic tee starts later):
	// create it empty so the tailer can start following.
	if f, err := os.OpenFile(io.logPath, os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		log.Fatalf("-ingest-log %s: %v", io.logPath, err)
	} else {
		f.Close()
	}
	ing, err := stream.NewIngester(stream.Config{
		LogPath:           io.logPath,
		WALPath:           io.walPath,
		ModelPath:         io.modelOut,
		BaseVocab:         champion.Dict().Strings(),
		Train:             core.Config{ReductionThreshold: io.threshold, SessionGap: io.gap},
		RecompileSessions: io.recompile,
		Obs:               reg,
		Tracer:            tracer,
		Push: func(modelPath string) error {
			gen, err := slot.Reload(false)
			if err != nil {
				return err
			}
			if err := rt.RefreshBase(); err != nil {
				log.Printf("ingest: interning base not advanced after push: %v", err)
			}
			log.Printf("ingest: pushed %s into arm %q (generation %d)", modelPath, io.arm, gen)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if st := ing.Status(); st.Replayed > 0 || st.TornTailBytes > 0 {
		log.Printf("ingest: write-log replayed %d entries (%d sessions), %d torn bytes discarded, resuming at offset %d",
			st.Replayed, st.Sessions, st.TornTailBytes, st.LogOffset)
	}
	go func() {
		if err := ing.Run(context.Background(), io.poll); err != nil {
			log.Printf("ingest: loop stopped: %v", err)
		}
	}()
	log.Printf("ingest: tailing %s (write-log %s, recompile every %d sessions into arm %q)",
		io.logPath, io.walPath, io.recompile, io.arm)

	var ramp *fleet.Ramp
	if io.rampSteps != "" {
		var steps []uint32
		for _, s := range strings.Split(io.rampSteps, ",") {
			w, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
			if err != nil {
				log.Fatalf("malformed -ramp step %q: %v", s, err)
			}
			steps = append(steps, uint32(w))
		}
		ramp, err = fleet.NewRamp(rt, io.arm, fleet.RampPolicy{
			Steps:           steps,
			Hold:            io.rampHold,
			MinSamples:      io.rampMinSamples,
			MaxTop1Mismatch: io.rampMaxMismatch,
			MinRankOverlap:  io.rampMinOverlap,
			Promote:         io.rampPromote,
		})
		if err != nil {
			log.Fatal(err)
		}
		ramp.SetObservability(reg, tracer)
		ramp.Start(io.rampEvery)
		log.Printf("ramp: arm %q walks %v (hold %s, %d shadow samples to start, promote=%v)",
			io.arm, steps, io.rampHold, io.rampMinSamples, io.rampPromote)
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
	}
}

// buildRouterHandler assembles the router role: a consistent-hash ring over
// an in-process loopback (integer -shards, sharing one -model) or remote
// shard URLs, replicated and failure-policied per ropts.
func buildRouterHandler(shards, modelPath string, topN, cacheCap int, ropts fleet.RouterOptions) *fleet.ShardRouter {
	if shards == "" {
		log.Fatal("-role router needs -shards (an integer for a loopback ring, or comma-separated shard URLs)")
	}
	if n, err := strconv.Atoi(shards); err == nil {
		if n < 1 {
			log.Fatalf("-shards %d: need at least one shard", n)
		}
		rec, err := loadModel(modelPath)
		if err != nil {
			log.Fatal(err)
		}
		logModelShape("", rec)
		perShardCache := 0
		if cacheCap > 0 {
			perShardCache = (cacheCap + n - 1) / n
		}
		handlers := make([]http.Handler, n)
		for i := range handlers {
			handlers[i] = serve.New(rec, serve.Options{
				DefaultN:      topN,
				CacheCapacity: perShardCache,
				// POST /v1/reload on the router broadcasts here, so a loopback
				// ring hot-reloads like any other deployment. Each partition
				// remaps the file independently; pages stay shared.
				ReloadFunc: func() (core.Recommender, error) { return loadModel(modelPath) },
			})
		}
		router, err := fleet.NewShardRouterOpts(fleet.NewRing(n, 0), fleet.NewLoopbackTransport(handlers...), ropts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loopback ring: %d shards over one model, %d virtual nodes/shard, R=%d",
			n, fleet.DefaultVirtualNodes, router.Replicas())
		return router
	}
	urls := strings.Split(shards, ",")
	// nil client: NewHTTPTransport supplies dial/response timeouts and a
	// sized connection pool; -shard-timeout bounds each attempt via ctx.
	tr, err := fleet.NewHTTPTransport(urls, nil)
	if err != nil {
		log.Fatal(err)
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(len(urls), 0), tr, ropts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("HTTP ring: %d shards (%s), %d virtual nodes/shard, R=%d",
		len(urls), shards, fleet.DefaultVirtualNodes, router.Replicas())
	return router
}

// armSpec is one parsed -arms entry.
type armSpec struct {
	name   string
	path   string
	weight uint32
}

// parseArms decodes -arms: comma-separated name=path[:weight] entries,
// weight defaulting to 1 and 0 marking shadow arms.
func parseArms(s string) ([]armSpec, error) {
	var specs []armSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("malformed -arms entry %q (want name=path[:weight])", entry)
		}
		spec := armSpec{name: name, path: rest, weight: 1}
		if path, w, ok := strings.Cut(rest, ":"); ok {
			weight, err := strconv.ParseUint(w, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("malformed weight in -arms entry %q: %v", entry, err)
			}
			spec.path = path
			spec.weight = uint32(weight)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-arms given but no arms parsed from %q", s)
	}
	return specs, nil
}

// logModelShape logs the loaded model's serving shape (the compiled-PST line
// operators grep for). Every model file holds a compiled blob —
// core.Engine.Save refuses an engine without one — so every model loadModel
// returns has a compiled form, quantised: the blob is CPS5.
func logModelShape(name string, rec core.Recommender) {
	label := ""
	if name != "" {
		label = fmt.Sprintf(" %q", name)
	}
	cm := rec.CompiledModel()
	log.Printf("model%s loaded: %d known queries, quantised compiled PST with %d nodes / %d followers (depth %d, %d components)",
		label, rec.Dict().Len(), cm.Nodes(), cm.Followers(), cm.Depth(), cm.Components())
}
