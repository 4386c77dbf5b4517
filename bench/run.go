package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/core"
)

// runConfig is one `bench run` invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int    // nominal measuring time; fixes the lap count
	trace   string // "" = end-to-end run; else traced run writing spans here
	workdir string // scratch directory for the model file and traces
	serve   string // path of the real cmd/serve binary (traced runs)
}

const (
	// lapsPerSecond turns -seconds into a lap count. The count is a function
	// of the argument, never of the clock: two runs of one command time the
	// same number of identical laps, so their 11th-fastest laps compare.
	lapsPerSecond = 100
	warmLaps      = 3
	// prepareTries is how often an end-to-end run runs the prepare child; the
	// fastest try counts, for the reason the fastest laps do. The tries are
	// spread over the run — before the laps, after each third of them — as
	// the host's slow phases last tens of seconds, and tries a few seconds
	// apart see different ones where tries back to back see the same.
	prepareTries = 4
	// accuracyPairs is the length of the held-out stretch hit_at_5 is scored
	// on. A lap's one to six thousand pairs put ±3 % of sampling error on the
	// figure from one seed to the next; this many put ±0.4 %.
	accuracyPairs = 32768
)

// env is everything a run sets up before it measures: the model the child
// trained, loaded the way cmd/serve loads it, the lap, the handler chain and
// its caller, warmed and checked against the oracle.
type env struct {
	cfg       runConfig
	modelPath string
	prep      prepareReport
	rec       core.Recommender
	pool      *pool
	handler   http.Handler
	ring      *ring // nil for single-handler workloads
	caller    *caller
	// Set-up time is the fastest prepare child's wall time plus what the
	// measuring process then took to load, build and warm.
	prepared  time.Duration
	inProcess time.Duration
	attempted int
	failed    int
}

// setUp is the protocol's steps 1 and 2: prepare in a child on the run's
// seed; then load, build the pool and the handler chain, and warm.
func setUp(cfg runConfig) (*env, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	modelPath := filepath.Join(cfg.workdir, fmt.Sprintf("model-%s-%d-%d.bin", cfg.w.name, cfg.seed, os.Getpid()))
	prep, wall, err := prepareInChild(cfg.seed, modelPath)
	if err != nil {
		os.Remove(modelPath)
		return nil, err
	}
	e, err := newEnv(cfg, modelPath)
	if err != nil {
		os.Remove(modelPath)
		return nil, err
	}
	e.prep, e.prepared = prep, wall
	return e, nil
}

// prepareAgain is one more try at step 1, into a file of its own: the served
// model's file is mapped and stays as it is.
func (e *env) prepareAgain() error {
	again := e.modelPath + ".again"
	defer os.Remove(again)
	prep, wall, err := prepareInChild(e.cfg.seed, again)
	if err != nil {
		return err
	}
	if wall < e.prepared {
		e.prep, e.prepared = prep, wall
	}
	return nil
}

// newEnv is the measuring process's share of set-up: load the model the way
// cmd/serve does, build the lap and the handler chain, replay the untimed
// laps.
func newEnv(cfg runConfig, modelPath string) (*env, error) {
	e := &env{cfg: cfg, modelPath: modelPath}
	start := time.Now()
	var err error
	if e.rec, err = core.LoadAnyPath(modelPath, core.LoadOptions{}); err != nil {
		return nil, err
	}
	if e.pool, err = buildPool(cfg.w, e.rec, cfg.seed); err != nil {
		e.rec.Close()
		return nil, err
	}
	if cfg.w.router {
		if e.ring, err = newRing(e.rec, modelPath, nil); err != nil {
			e.rec.Close()
			return nil, err
		}
		e.handler = e.ring.router
	} else {
		e.handler = newServeHandler(e.rec, modelPath, e.pool.cacheCapacity(cfg.w))
	}
	e.caller = newCaller(e.handler, e.pool)
	if err := e.warm(e.caller); err != nil {
		e.rec.Close()
		return nil, err
	}
	e.inProcess = time.Since(start)
	return e, nil
}

// warm replays the untimed laps: the first is checked against the oracle and
// becomes the reference, the rest must already repeat it.
func (e *env) warm(c *caller) error {
	c.lap()
	failed, err := c.adoptReference()
	if err != nil {
		return err
	}
	e.attempted += len(c.p.reqs)
	e.failed += failed
	for i := 1; i < warmLaps; i++ {
		c.lap()
		e.attempted += len(c.p.reqs)
		e.failed += c.verify()
	}
	return nil
}

func (e *env) close() { e.rec.Close() }

// discard closes an environment setUp built and deletes its model file.
func (e *env) discard() {
	e.close()
	os.Remove(e.modelPath)
}

// timeLaps is step 3: n identical laps, each verified after its clock has
// stopped.
func (e *env) timeLaps(n int) []time.Duration {
	laps := make([]time.Duration, 0, n)
	runtime.GC()
	for len(laps) < n {
		laps = append(laps, e.caller.lap())
		e.attempted += len(e.pool.reqs)
		e.failed += e.caller.verify()
	}
	return laps
}

// hitAt5 serves the first n (context → true next query) pairs of the
// held-out stream — the stretch the lap was cut from, continued —
// through the run's handler chain, in the workload's request kind, checks
// every answer against the oracle, and returns the share whose next query is
// among the served suggestions. It runs after the laps and the resident-set
// reading, so it costs them nothing.
func (e *env) hitAt5(n int) (float64, error) {
	items, _, err := buildItems(e.rec, e.cfg.seed, n, 0)
	if err != nil {
		return 0, err
	}
	p, err := poolFromItems(items, 0, e.cfg.w.batch)
	if err != nil {
		return 0, err
	}
	c := newCaller(e.handler, p)
	c.lap()
	failed, err := c.adoptReference()
	if err != nil {
		return 0, err
	}
	e.attempted += len(p.reqs)
	e.failed += failed
	return float64(c.hits) / float64(len(items)), nil
}

// rssMiB reads a process's resident set from /proc/<pid>/statm: the second
// field, in pages.
func rssMiB(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/statm", pid)
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0, fmt.Errorf("%s: %q: %w", path, raw, err)
	}
	return float64(resident) * float64(os.Getpagesize()) / (1 << 20), nil
}

// run executes one workload and returns its metrics: the end-to-end set, or
// with cfg.trace the per-layer set.
func run(cfg runConfig) (m metrics, attempted, failed int, err error) {
	// One core: the figure is contexts per second per core, and a second P
	// would let the runtime's background work overlap the caller unevenly.
	runtime.GOMAXPROCS(1)
	if cfg.trace != "" {
		return runTraced(cfg)
	}
	n := cfg.seconds * lapsPerSecond
	if n < minLaps {
		return nil, 0, 0, fmt.Errorf("-seconds %d gives %d laps; need at least %d", cfg.seconds, n, minLaps)
	}
	e, err := setUp(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	defer e.discard()
	// setUp made the first prepare try; the others follow each third of the
	// laps.
	laps := make([]time.Duration, 0, n)
	for try := 1; try < prepareTries; try++ {
		laps = append(laps, e.timeLaps(n*try/(prepareTries-1)-len(laps))...)
		if err := e.prepareAgain(); err != nil {
			return nil, 0, 0, err
		}
	}
	// The resident set is what the process holds, not what the collector has
	// yet to hand back: how far the background scavenger got by now moves a
	// raw reading by ±7 % between runs of one seed.
	debug.FreeOSMemory()
	rss, err := rssMiB(os.Getpid())
	if err != nil {
		return nil, 0, 0, err
	}
	slices.Sort(laps)
	hit, err := e.hitAt5(accuracyPairs)
	if err != nil {
		return nil, 0, 0, err
	}
	reportSpread(e, laps)
	return metrics{
		"ctx_per_s": float64(len(e.pool.items)) / fastOf(laps).Seconds(),
		"rss_mb":    rss,
		"hit_at_5":  hit,
		"setup_s":   (e.prepared + e.inProcess).Seconds(),
	}, e.attempted, e.failed, nil
}

// reportSpread prints what the gated numbers hide, for a human reading the
// run: the lap distribution and what the pool looked like.
func reportSpread(e *env, sorted []time.Duration) {
	w, items := e.cfg.w, len(e.pool.items)
	perCtx := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(items) }
	fmt.Printf("# set-up: fastest of %d prepare children %.3fs (generate %.3fs, train %.3fs, save %.1fms) + load, pool, handler and %d warm laps %.3fs\n",
		prepareTries, e.prepared.Seconds(), e.prep.GenSeconds, e.prep.TrainSeconds, e.prep.SaveMillis, warmLaps, e.inProcess.Seconds())
	fmt.Printf("# %s: %d laps of %d contexts in %d requests (%d distinct, cache %d, pool %d KiB, %d of the lap's next queries served)\n",
		w.name, len(sorted), items, len(e.pool.reqs), e.pool.distinct,
		e.pool.cacheCapacity(w), e.pool.requestBytes()/1024, e.caller.hits)
	fmt.Printf("# lap ns/ctx: fastest %.1f  rank-%d %.1f  p25 %.1f  p50 %.1f  p75 %.1f  slowest %.1f\n",
		perCtx(sorted[0]), fastRank, perCtx(fastOf(sorted)), perCtx(quantileCeil(sorted, 0.25)),
		perCtx(quantileCeil(sorted, 0.5)), perCtx(quantileCeil(sorted, 0.75)), perCtx(sorted[len(sorted)-1]))
	fmt.Printf("# response hash %016x\n", e.caller.responseHash())
}
