// Command loadgen replays synthetic query contexts against a running
// cmd/serve instance and reports throughput and latency quantiles — the
// load side of the paper's "real-time query recommendation" deployment
// claim. Contexts are drawn from the same generator as the training
// pipeline (internal/loggen), so their popularity follows the power law of
// real logs (Fig. 6) and the server's cache sees realistic head/tail skew.
//
// The replay is arm-aware: every cmd/serve /suggest response carries the
// serving arm in X-Serve-Arm ("default" for a -model process), and the
// report breaks request counts, traffic share and latency quantiles out per
// arm — the client-side half of an online A/B comparison under -arms (the
// server's /v1/metrics holds the matching per-arm view).
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -requests 20000 -c 16
//	loadgen -addr http://localhost:8080 -batch 32          # POST /suggest/batch
//	loadgen -addr http://localhost:8080 -batch 32 -stream  # NDJSON streaming
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/loggen"
	"repro/internal/serve"
	"repro/internal/stream"
)

// failoverStats aggregates the replay's view of the router's failure policy:
// responses that were failed over or hedged (from X-Serve-Attempts /
// X-Serve-Hedge / X-Serve-Failovers headers) and NDJSON error lines — the
// quantified availability number a chaos run reads.
type failoverStats struct {
	failedOver atomic.Int64 // GET responses served after >1 attempt
	hedgedWon  atomic.Int64 // GET responses won by a hedged attempt
	batchItems atomic.Int64 // buffered batch items served by a non-primary
	lines      atomic.Int64 // NDJSON result lines seen
	errLines   atomic.Int64 // NDJSON error lines seen
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addr     = flag.String("addr", "http://localhost:8080", "server base URL")
		requests = flag.Int("requests", 10000, "total requests to send")
		conc     = flag.Int("c", 16, "concurrent workers")
		topN     = flag.Int("n", 5, "suggestions per context")
		batch    = flag.Int("batch", 0, "contexts per POST /suggest/batch request (0 = single GETs)")
		stream   = flag.Bool("stream", false, "request NDJSON streaming batch responses (?stream=1) and report time-to-first-result; requires -batch")
		sessions = flag.Int("sessions", 4000, "synthetic sessions to derive contexts from")
		seed     = flag.Int64("seed", 1, "context-replay RNG seed")
	)
	flag.Parse()
	if *stream && *batch <= 0 {
		log.Fatal("-stream needs -batch > 0 (streaming is a batch-endpoint feature)")
	}

	contexts := buildContexts(*sessions, *seed)
	log.Printf("replaying %d contexts (%d requests, %d workers, batch=%d, stream=%v) against %s",
		len(contexts), *requests, *conc, *batch, *stream, *addr)

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *conc * 2,
			MaxIdleConnsPerHost: *conc * 2,
		},
	}

	var (
		issued   atomic.Int64
		errCount atomic.Int64
		fstats   failoverStats
		wg       sync.WaitGroup
		latMu    sync.Mutex
		lats     []time.Duration
		firsts   []time.Duration
		armLats  = make(map[string][]time.Duration)
	)
	// Report how the server's model materialised (mmap vs heap, and how
	// fast) so cold-start wins are visible from the traffic side too.
	if h := fetchHealth(client, *addr); h != nil && h.LoadMode != "" {
		log.Printf("server model: load mode %s (%s), loaded in %dus, generation %d",
			h.LoadMode, h.LoadVersion, h.LoadMicros, h.Generation)
	}

	// Snapshot allocator/GC state on both sides of the run so regressions in
	// the serving path show up here, not just in microbenchmarks.
	serverBefore := fetchMetrics(client, *addr)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(worker)))
			local := make([]time.Duration, 0, *requests / *conc + 1)
			var localFirsts []time.Duration
			localArms := make(map[string][]time.Duration)
			for issued.Add(1) <= int64(*requests) {
				var err error
				var took, first time.Duration
				var arm string
				if *batch > 0 {
					took, first, err = doBatch(client, *addr, contexts, rng, *batch, *topN, *stream, &fstats)
				} else {
					took, arm, err = doSingle(client, *addr, contexts[rng.Intn(len(contexts))], *topN, &fstats)
				}
				if err != nil {
					errCount.Add(1)
					continue
				}
				local = append(local, took)
				if *stream {
					localFirsts = append(localFirsts, first)
				}
				if arm != "" {
					localArms[arm] = append(localArms[arm], took)
				}
			}
			latMu.Lock()
			lats = append(lats, local...)
			firsts = append(firsts, localFirsts...)
			for arm, ls := range localArms {
				armLats[arm] = append(armLats[arm], ls...)
			}
			latMu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ok := len(lats)
	ctxServed := ok
	if *batch > 0 {
		ctxServed = ok * *batch
	}
	fmt.Printf("requests:    %d ok, %d errors in %s\n", ok, errCount.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("throughput:  %.0f req/s (%.0f contexts/s)\n",
		float64(ok)/elapsed.Seconds(), float64(ctxServed)/elapsed.Seconds())
	if ok > 0 {
		fmt.Printf("latency:     p50 %s  p90 %s  p99 %s  max %s\n",
			pct(lats, 0.50), pct(lats, 0.90), pct(lats, 0.99), lats[ok-1])
	}
	if len(firsts) > 0 {
		// Streaming's headline win: how long until the first NDJSON result
		// line lands, vs the full-batch latency above.
		sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
		fmt.Printf("first-result: p50 %s  p90 %s  p99 %s  max %s\n",
			pct(firsts, 0.50), pct(firsts, 0.90), pct(firsts, 0.99), firsts[len(firsts)-1])
	}
	printArmReport(armLats, ok)
	printFailoverReport(&fstats, ok)
	printClientMem(memBefore, memAfter, ok)
	printServerMetrics(client, *addr, serverBefore, ctxServed)
	printRouterMetrics(client, *addr)
	printIngestStatus(client, *addr)
}

// printFailoverReport summarises the failure policy's client-visible work:
// how many responses needed a failover or were won by a hedge, and the NDJSON
// error-line rate — zero across a chaos run at R>=2 is the availability
// claim, quantified.
func printFailoverReport(f *failoverStats, ok int) {
	fo, hw, bi := f.failedOver.Load(), f.hedgedWon.Load(), f.batchItems.Load()
	lines, errs := f.lines.Load(), f.errLines.Load()
	if fo == 0 && hw == 0 && bi == 0 && lines == 0 {
		return
	}
	if ok == 0 {
		ok = 1
	}
	fmt.Printf("failover:    %d multi-attempt GETs (%.2f%%), %d hedge wins, %d failed-over batch items\n",
		fo, 100*float64(fo)/float64(ok), hw, bi)
	if lines > 0 {
		fmt.Printf("stream:      %d lines, %d error lines (%.3f%% error-line rate)\n",
			lines, errs, 100*float64(errs)/float64(lines))
	}
}

// printClientMem reports the load generator's own runtime.ReadMemStats
// deltas across the run — the client-side allocation and GC pause budget.
func printClientMem(before, after runtime.MemStats, ok int) {
	if ok == 0 {
		ok = 1
	}
	fmt.Printf("client mem:  %.1f allocs/req, %.1f MiB allocated, %d GCs, %s total GC pause\n",
		float64(after.Mallocs-before.Mallocs)/float64(ok),
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20),
		after.NumGC-before.NumGC,
		(time.Duration(after.PauseTotalNs-before.PauseTotalNs) * time.Nanosecond).Round(time.Microsecond))
}

// buildContexts derives every proper prefix of the generated sessions as a
// replayable context. Identical sessions recur across the stream, so hot
// contexts repeat with realistic skew.
func buildContexts(n int, seed int64) [][]string {
	cfg := loggen.DefaultConfig()
	cfg.Seed = seed
	gen, err := loggen.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var contexts [][]string
	for _, ls := range gen.GenerateSessions(n) {
		for l := 1; l < len(ls.Queries); l++ {
			contexts = append(contexts, ls.Queries[:l])
		}
	}
	if len(contexts) == 0 {
		log.Fatal("no contexts generated")
	}
	return contexts
}

// printArmReport breaks the replay out per serving arm when the server
// labelled its responses: request share and latency quantiles
// side by side, the numbers an A/B rollout decision reads.
func printArmReport(armLats map[string][]time.Duration, ok int) {
	if len(armLats) == 0 || ok == 0 {
		return
	}
	arms := make([]string, 0, len(armLats))
	for arm := range armLats {
		arms = append(arms, arm)
	}
	sort.Strings(arms)
	for _, arm := range arms {
		ls := armLats[arm]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		fmt.Printf("arm %-12s %6d req (%5.1f%%)  p50 %s  p90 %s  p99 %s\n",
			arm+":", len(ls), 100*float64(len(ls))/float64(ok),
			pct(ls, 0.50), pct(ls, 0.90), pct(ls, 0.99))
	}
}

func doSingle(client *http.Client, addr string, context []string, n int, fstats *failoverStats) (time.Duration, string, error) {
	v := url.Values{}
	for _, q := range context {
		v.Add("q", q)
	}
	v.Set("n", strconv.Itoa(n))
	start := time.Now()
	resp, err := client.Get(addr + "/suggest?" + v.Encode())
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("status %d", resp.StatusCode)
	}
	// A serving process labels the arm; shard routers label the replica.
	arm := resp.Header.Get("X-Serve-Arm")
	if arm == "" {
		if shard := resp.Header.Get("X-Serve-Shard"); shard != "" {
			arm = "shard-" + shard
		}
	}
	// Replicated routers label how hard they worked for the answer.
	if a := resp.Header.Get("X-Serve-Attempts"); a != "" && a != "1" {
		fstats.failedOver.Add(1)
	}
	if resp.Header.Get("X-Serve-Hedge") == "won" {
		fstats.hedgedWon.Add(1)
	}
	return time.Since(start), arm, nil
}

// doBatch issues one batch request. In stream mode it hits the NDJSON
// endpoint (/v1/suggest/batch?stream=1), clocks the first result line
// separately from the full drain, and checks every line parses and the item
// count matches the batch — the client-side contract of incremental serving.
// The returned first duration is zero when stream is false.
func doBatch(client *http.Client, addr string, contexts [][]string, rng *rand.Rand, size, n int, stream bool, fstats *failoverStats) (took, first time.Duration, err error) {
	req := serve.BatchRequest{Requests: make([]serve.BatchItem, size)}
	for i := range req.Requests {
		req.Requests[i] = serve.BatchItem{Context: contexts[rng.Intn(len(contexts))], N: n}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	path := addr + "/suggest/batch"
	if stream {
		path = addr + "/v1/suggest/batch?stream=1"
	}
	start := time.Now()
	resp, err := client.Post(path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if !stream {
		if fo := resp.Header.Get("X-Serve-Failovers"); fo != "" {
			if n, err := strconv.Atoi(fo); err == nil {
				fstats.batchItems.Add(int64(n))
			}
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, 0, err
		}
		return time.Since(start), 0, nil
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line struct {
			Index *int            `json:"index"`
			Error json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Index == nil {
			return 0, 0, fmt.Errorf("bad NDJSON line %d: %v", lines, err)
		}
		fstats.lines.Add(1)
		if line.Error != nil {
			fstats.errLines.Add(1)
		}
		if lines == 0 {
			first = time.Since(start)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if lines != size {
		return 0, 0, fmt.Errorf("streamed %d lines, want %d", lines, size)
	}
	return time.Since(start), first, nil
}

// pct returns the q-quantile of sorted by the ceiling-rank rule: the
// smallest element with at least ceil(q*n) samples at or below it. The old
// int(q*(n-1)) indexing truncated toward zero and under-reported tail
// quantiles (p99 of 2 samples read the fast one); ceiling-rank never
// under-reports and matches the server's histogram quantiles.
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}

// fetchHealth snapshots the server's /healthz, or nil when unreachable.
func fetchHealth(client *http.Client, addr string) *serve.Health {
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil
	}
	return &h
}

// fetchMetrics snapshots the server's /v1/metrics, or nil when unreachable.
func fetchMetrics(client *http.Client, addr string) *serve.MetricsResponse {
	resp, err := client.Get(addr + "/v1/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var m serve.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil
	}
	return &m
}

// printRouterMetrics reports the router-side failure-policy counters when the
// target is a replicated shard router: retries, failovers, hedges and the
// per-shard breaker states — the server-side half of the chaos availability
// number.
func printRouterMetrics(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/v1/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var m fleet.ShardRouterMetrics
	if json.NewDecoder(resp.Body).Decode(&m) != nil || m.Role != "router" || m.Replicas < 2 {
		return
	}
	fmt.Printf("router:      R=%d, %d retries, %d failovers, %d/%d hedges won\n",
		m.Replicas, m.Retries, m.Failovers, m.HedgesWon, m.Hedges)
	for _, h := range m.ShardHealth {
		if h.State != "healthy" || h.Failures > 0 {
			fmt.Printf("  shard %d: %s, %d fails (%d consecutive), %d ejections\n",
				h.Shard, h.State, h.Failures, h.ConsecutiveFailures, h.Ejections)
		}
	}
}

// printIngestStatus reports the server's embedded ingestion loop when one is
// running (GET /v1/ingest answers 404 otherwise): how far the tailer is into
// the source log and how many recompiled snapshots it has pushed at the fleet.
func printIngestStatus(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/v1/ingest")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return // no ingestion loop in this process
	}
	var st stream.Status
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return
	}
	fmt.Printf("ingest:      %d sessions from %d log bytes (%d open), %d recompiles, %d pushes (%d failed), vocab %d\n",
		st.Sessions, st.LogOffset, st.OpenSessions, st.Recompiles, st.Pushes, st.PushErrors, st.Vocab)
	if st.LastError != "" {
		fmt.Printf("  last ingest error: %s\n", st.LastError)
	}
}

func printServerMetrics(client *http.Client, addr string, before *serve.MetricsResponse, ctxServed int) {
	m := fetchMetrics(client, addr)
	if m == nil {
		log.Printf("fetching /v1/metrics failed")
		return
	}
	fmt.Printf("server:      cache hit rate %.1f%% (%d hits / %d misses, %d evictions, %d refused), "+
		"server-side p50 %dus p99 %dus p999 %dus max %dus, generation %d, compiled nodes %d\n",
		100*m.CacheHitRate, m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions, m.Cache.Refused,
		m.P50Micros, m.P99Micros, m.P999Micros, m.MaxMicros, m.ModelGeneration, m.CompiledNodes)
	if len(m.Stages) > 0 {
		names := make([]string, 0, len(m.Stages))
		for name := range m.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := m.Stages[name]
			fmt.Printf("  stage %-12s %8d reqs, p50 %dus p99 %dus p999 %dus max %dus\n",
				name, s.Count, s.P50Micros, s.P99Micros, s.P999Micros, s.MaxMicros)
		}
	}
	if before == nil {
		return
	}
	if ctxServed == 0 {
		ctxServed = 1
	}
	gcPause := time.Duration(m.Runtime.GCPauseTotalMicros-before.Runtime.GCPauseTotalMicros) * time.Microsecond
	fmt.Printf("server mem:  %.1f allocs/context, %.1f MiB allocated, %d GCs, %s total GC pause over the run\n",
		float64(m.Runtime.Mallocs-before.Runtime.Mallocs)/float64(ctxServed),
		float64(m.Runtime.TotalAllocBytes-before.Runtime.TotalAllocBytes)/(1<<20),
		m.Runtime.NumGC-before.Runtime.NumGC, gcPause)
}
