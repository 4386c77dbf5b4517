package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// chaosTransport wraps a fleet.Transport with fault injection: shards can be
// killed outright (down), made to fail their next N exchanges (failN — the
// "killed mid-batch" primitive), slowed (delay, cut short by ctx.Done() so
// hedged losers stop early and by ctx.Deadline() so a ShardTimeout fires), or
// made to answer their next exchange with a
// damaged body (garble). Faults flip at runtime under the mutex, so a
// test can kill a shard between a baseline run and a failover run, or
// mid-stream from another goroutine.
type chaosTransport struct {
	inner fleet.Transport

	mu     sync.Mutex
	down   map[int]bool
	failN  map[int]int
	delay  map[int]time.Duration
	garble map[int]func(body []byte) []byte
	calls  map[int]int
}

func newChaosTransport(inner fleet.Transport) *chaosTransport {
	return &chaosTransport{
		inner:  inner,
		down:   make(map[int]bool),
		failN:  make(map[int]int),
		delay:  make(map[int]time.Duration),
		garble: make(map[int]func([]byte) []byte),
		calls:  make(map[int]int),
	}
}

func (c *chaosTransport) Shards() int { return c.inner.Shards() }

// setDown kills or revives a shard.
func (c *chaosTransport) setDown(shard int, down bool) {
	c.mu.Lock()
	c.down[shard] = down
	c.mu.Unlock()
}

// failNext makes the shard's next n exchanges fail, then recover.
func (c *chaosTransport) failNext(shard, n int) {
	c.mu.Lock()
	c.failN[shard] = n
	c.mu.Unlock()
}

// setDelay slows every exchange to the shard.
func (c *chaosTransport) setDelay(shard int, d time.Duration) {
	c.mu.Lock()
	c.delay[shard] = d
	c.mu.Unlock()
}

// garbleNext passes the body of the shard's next answer through damage.
func (c *chaosTransport) garbleNext(shard int, damage func(body []byte) []byte) {
	c.mu.Lock()
	c.garble[shard] = damage
	c.mu.Unlock()
}

func (c *chaosTransport) callCount(shard int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[shard]
}

func (c *chaosTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	c.mu.Lock()
	c.calls[shard]++
	down := c.down[shard]
	fail := false
	if c.failN[shard] > 0 {
		c.failN[shard]--
		fail = true
	}
	d := c.delay[shard]
	damage := c.garble[shard]
	delete(c.garble, shard)
	c.mu.Unlock()
	if down || fail {
		return 0, respBuf, fmt.Errorf("chaos: shard %d connection refused", shard)
	}
	if d > 0 {
		// A transport that blocks arms its own timer against the attempt's
		// deadline (the Transport.Exchange contract): the delay ends there
		// with DeadlineExceeded when the deadline comes first.
		var expired error
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
			d, expired = time.Until(dl), context.DeadlineExceeded
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
			if expired != nil {
				return 0, respBuf, expired
			}
		case <-ctx.Done():
			t.Stop()
			return 0, respBuf, ctx.Err()
		}
	}
	status, resp, err := c.inner.Exchange(ctx, shard, method, path, body, respBuf)
	if damage != nil && err == nil {
		resp = append(resp[:len(respBuf)], damage(bytes.Clone(resp[len(respBuf):]))...)
	}
	return status, resp, err
}

// newChaosRing builds an R-replicated loopback ring behind a chaos transport.
// Backoff sleeps are disabled so failover rounds run at test speed.
func newChaosRing(t *testing.T, shards int, opts fleet.RouterOptions) (*fleet.ShardRouter, *chaosTransport) {
	t.Helper()
	rec := shardTestRec(t)
	handlers := make([]http.Handler, shards)
	for i := range handlers {
		handlers[i] = serve.NewHandler(rec, 5)
	}
	chaos := newChaosTransport(fleet.NewLoopbackTransport(handlers...))
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = -1
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(shards, 0), chaos, opts)
	if err != nil {
		t.Fatal(err)
	}
	return router, chaos
}

// TestRingLookupN pins the preference-list contract: the first element is
// exactly Lookup, all elements are distinct, independently built rings agree
// on the whole list, and n is capped at the shard count.
func TestRingLookupN(t *testing.T) {
	r1, r2 := fleet.NewRing(5, 0), fleet.NewRing(5, 0)
	for h := uint64(0); h < 2000; h += 17 {
		prefs := r1.LookupN(h, 3, nil)
		if len(prefs) != 3 {
			t.Fatalf("h=%d: %d prefs, want 3", h, len(prefs))
		}
		if prefs[0] != r1.Lookup(h) {
			t.Fatalf("h=%d: primary %d != Lookup %d", h, prefs[0], r1.Lookup(h))
		}
		seen := map[int]bool{}
		for _, s := range prefs {
			if s < 0 || s >= 5 || seen[s] {
				t.Fatalf("h=%d: bad or duplicate shard in %v", h, prefs)
			}
			seen[s] = true
		}
		other := r2.LookupN(h, 3, nil)
		for i := range prefs {
			if prefs[i] != other[i] {
				t.Fatalf("h=%d: rings disagree: %v vs %v", h, prefs, other)
			}
		}
	}
	if got := r1.LookupN(42, 99, nil); len(got) != 5 {
		t.Fatalf("n beyond ring size gave %d prefs, want 5", len(got))
	}
}

// chaosBatchBody spans two of the test ring's three shards: four items hash to
// shard 1, two to shard 0.
const chaosBatchBody = `{"requests":[{"context":["o2"]},{"context":["nokia n73"],"n":1},{"context":["o2","o2 mobile"]},{"context":["never seen"]},{"context":["nokia n73"]},{"context":["o2 mobile phones","o2"]}]}`

var chaosGETQueries = []string{
	"q=o2", "q=o2+mobile", "q=o2&q=o2+mobile", "q=nokia+n73",
	"q=nokia%20n73&n=2", "q=o2+mobile+phones&q=o2", "q=unknown+stuff", "q=o2&n=1",
}

// TestChaosShardKillMidBatchR2 is the issue's acceptance scenario: at R=2
// with one shard killed mid-batch, /suggest and /suggest/batch (buffered and
// ?stream=1) must return byte-identical bodies to the healthy topology with
// zero 5xx — the failover absorbs the fault invisibly.
func TestChaosShardKillMidBatchR2(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	srv := httptest.NewServer(router)
	defer srv.Close()

	// Healthy baselines.
	getWant := make([]string, len(chaosGETQueries))
	for i, qs := range chaosGETQueries {
		body, _, code := getBody(t, srv.URL+"/suggest?"+qs)
		if code != http.StatusOK {
			t.Fatalf("healthy GET %s: status %d", qs, code)
		}
		getWant[i] = stripTook(body)
	}
	post := func(path string) ([]byte, int) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(chaosBatchBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw, resp.StatusCode
	}
	bufWant, code := post("/suggest/batch")
	if code != http.StatusOK {
		t.Fatalf("healthy buffered batch: status %d", code)
	}
	streamWantRaw, code := post("/suggest/batch?stream=1")
	if code != http.StatusOK {
		t.Fatalf("healthy stream batch: status %d", code)
	}
	streamWant := readRingNDJSON(t, strings.NewReader(string(streamWantRaw)), 6)

	// Kill one shard "mid-batch": its next exchange fails (the sub-batch in
	// flight), then the shard stays down for everything after.
	const victim = 0
	chaos.failNext(victim, 1)
	chaos.setDown(victim, false)
	gotBuf, code := post("/suggest/batch")
	if code != http.StatusOK {
		t.Fatalf("mid-batch kill: buffered status %d: %s", code, gotBuf)
	}
	if stripTook(gotBuf) != stripTook(bufWant) {
		t.Fatalf("mid-batch kill changed the buffered body:\ngot:  %s\nwant: %s", gotBuf, bufWant)
	}
	chaos.setDown(victim, true)

	// GETs: every query, repeated, must stay 200 and byte-identical.
	for rep := 0; rep < 3; rep++ {
		for i, qs := range chaosGETQueries {
			body, _, code := getBody(t, srv.URL+"/suggest?"+qs)
			if code != http.StatusOK {
				t.Fatalf("shard-down GET %s: status %d: %s", qs, code, body)
			}
			if stripTook(body) != getWant[i] {
				t.Fatalf("shard-down GET %s changed:\ngot:  %s\nwant: %s", qs, stripTook(body), getWant[i])
			}
		}
	}
	// Buffered batch: 200 and byte-identical with the shard hard-down.
	gotBuf, code = post("/suggest/batch")
	if code != http.StatusOK {
		t.Fatalf("shard-down buffered batch: status %d: %s", code, gotBuf)
	}
	if stripTook(gotBuf) != stripTook(bufWant) {
		t.Fatalf("shard-down buffered body changed:\ngot:  %s\nwant: %s", gotBuf, bufWant)
	}
	// Streamed batch: same per-index result bytes, no error lines.
	gotStreamRaw, code := post("/suggest/batch?stream=1")
	if code != http.StatusOK {
		t.Fatalf("shard-down stream batch: status %d", code)
	}
	for i, ln := range readRingNDJSON(t, strings.NewReader(string(gotStreamRaw)), 6) {
		if ln.Error != nil {
			t.Fatalf("shard-down stream item %d carries an error: %s", i, ln.Error)
		}
		if got, want := stripTook(ln.Result), stripTook(streamWant[i].Result); got != want {
			t.Fatalf("shard-down stream item %d changed:\ngot:  %s\nwant: %s", i, got, want)
		}
	}

	// The failure policy did real work and says so in /v1/metrics.
	raw, _, _ := getBody(t, srv.URL+"/v1/metrics")
	var m fleet.ShardRouterMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Replicas != 2 {
		t.Fatalf("metrics replicas = %d, want 2", m.Replicas)
	}
	if m.Retries == 0 || m.Failovers == 0 {
		t.Fatalf("expected nonzero retries and failovers after chaos: %+v", m)
	}
	if len(m.ShardHealth) != 3 || m.ShardHealth[victim].Failures == 0 {
		t.Fatalf("shard health missing the victim's failures: %+v", m.ShardHealth)
	}

	// /healthz reports the ejected shard but stays ok (quorum healthy).
	raw, _, _ = getBody(t, srv.URL+"/healthz")
	var h fleet.ShardRouterHealth
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.Replicas != 2 || h.ShardsHealthy < 2 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestChaosStreamFailoverByteIdentical kills the primary of a streamed
// batch's first sub-batch mid-stream at R=2: the emitted NDJSON lines must
// be byte-identical to the healthy run (modulo took_us) — no error lines, no
// duplicate indices (readRingNDJSON enforces exactly-once coverage).
func TestChaosStreamFailoverByteIdentical(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	srv := httptest.NewServer(router)
	defer srv.Close()

	post := func() []ringNDJSONLine {
		resp, err := http.Post(srv.URL+"/v1/suggest/batch?stream=1", "application/json", strings.NewReader(chaosBatchBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status = %d", resp.StatusCode)
		}
		return readRingNDJSON(t, resp.Body, 6)
	}
	want := post()

	// Find a shard that actually carries items of this batch and kill it for
	// exactly the next sub-batch it receives — the primary dies mid-stream,
	// after the 200 is committed and other shards' lines are flushing.
	victim := -1
	for s := 0; s < 3; s++ {
		if chaos.callCount(s) > 0 {
			victim = s
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard carried batch traffic")
	}
	chaos.failNext(victim, 1)
	got := post()
	for i := range want {
		if got[i].Error != nil {
			t.Fatalf("failover stream item %d carries an error: %s", i, got[i].Error)
		}
		if stripTook(got[i].Result) != stripTook(want[i].Result) {
			t.Fatalf("failover stream item %d changed:\ngot:  %s\nwant: %s",
				i, stripTook(got[i].Result), stripTook(want[i].Result))
		}
	}

	// At R=1 the same kill has no replica to walk to: the stream degrades to
	// error lines for the victim's items — but still answers every index
	// exactly once and never a 5xx.
	router1, chaos1 := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 1})
	srv1 := httptest.NewServer(router1)
	defer srv1.Close()
	resp, err := http.Post(srv1.URL+"/v1/suggest/batch?stream=1", "application/json", strings.NewReader(chaosBatchBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	victim1 := -1
	for s := 0; s < 3; s++ {
		if chaos1.callCount(s) > 0 {
			victim1 = s
			break
		}
	}
	chaos1.failNext(victim1, 1)
	resp, err = http.Post(srv1.URL+"/v1/suggest/batch?stream=1", "application/json", strings.NewReader(chaosBatchBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("R=1 stream status = %d, want 200", resp.StatusCode)
	}
	sawError := false
	for _, ln := range readRingNDJSON(t, resp.Body, 6) {
		if ln.Error != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("R=1 mid-stream kill produced no error lines — fault was not injected")
	}
}

// TestChaosMalformedAnswerFailsOver damages one shard's answer to a sub-batch
// every way the line check must catch — cut short inside a line, at a line
// boundary, without its final newline, lines reordered, repeated or foreign,
// the buffered form instead of lines — at R=2: each time the replica's answer
// is served, buffered and streamed, byte-identical to the healthy run, and
// the failure is booked against the shard that sent the bad answer.
func TestChaosMalformedAnswerFailsOver(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2, FailThreshold: 100})
	bufWant := postTo(router, "/suggest/batch", chaosBatchBody)
	streamWant := postTo(router, "/suggest/batch?stream=1", chaosBatchBody)
	if bufWant.Code != http.StatusOK || streamWant.Code != http.StatusOK {
		t.Fatalf("healthy run: buffered %d, streamed %d", bufWant.Code, streamWant.Code)
	}
	wantLines := readRingNDJSON(t, streamWant.Body, 6)
	victim := routeOf(t, router, "q=o2").Shard // carries four of the six items

	lines := func(body []byte) [][]byte {
		return bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	}
	damages := []struct {
		name   string
		damage func(body []byte) []byte
	}{
		{"cut inside the last line", func(b []byte) []byte { return b[:len(b)-7] }},
		{"cut at a line boundary", func(b []byte) []byte { l := lines(b); return bytes.Join(l[:len(l)-1], nil) }},
		{"final newline missing", func(b []byte) []byte { return b[:len(b)-1] }},
		{"two lines swapped", func(b []byte) []byte {
			l := lines(b)
			l[len(l)-1] = append(l[len(l)-1], '\n')
			l[0], l[len(l)-1] = l[len(l)-1], l[0]
			return bytes.Join(l, nil)
		}},
		{"first line repeated", func(b []byte) []byte { return bytes.Join([][]byte{lines(b)[0], b}, nil) }},
		{"a foreign line", func(b []byte) []byte { return append([]byte("{\"index\":0,\"error\":{}}\n"), b...) }},
		{"the buffered form", func([]byte) []byte { return []byte(`{"results":[{},{},{},{}],"took_us":0}`) }},
		{"nothing", func([]byte) []byte { return nil }},
	}
	for i, d := range damages {
		for _, stream := range []bool{false, true} {
			chaos.garbleNext(victim, d.damage)
			if !stream {
				rr := postTo(router, "/suggest/batch", chaosBatchBody)
				if rr.Code != http.StatusOK || stripTook(rr.Body.Bytes()) != stripTook(bufWant.Body.Bytes()) {
					t.Fatalf("%s: buffered answer %d\ngot:  %s\nwant: %s", d.name, rr.Code, rr.Body, bufWant.Body)
				}
				if rr.Header().Get("X-Serve-Failovers") != "4" {
					t.Fatalf("%s: X-Serve-Failovers = %q, want 4", d.name, rr.Header().Get("X-Serve-Failovers"))
				}
			} else {
				rr := postTo(router, "/suggest/batch?stream=1", chaosBatchBody)
				for j, ln := range readRingNDJSON(t, rr.Body, 6) {
					if ln.Error != nil || stripTook(ln.Result) != stripTook(wantLines[j].Result) {
						t.Fatalf("%s: streamed item %d = %s / %s, want %s", d.name, j, ln.Result, ln.Error, wantLines[j].Result)
					}
				}
			}
		}
		m := routerMetrics(t, router)
		if got, want := m.ShardHealth[victim].Failures, uint64(2*(i+1)); got != want || breakerFailures(m) != want {
			t.Fatalf("%s: victim has %d failures booked, want %d: %+v", d.name, got, want, m.ShardHealth)
		}
		if want := uint64(8 * (i + 1)); m.Retries != want {
			t.Fatalf("%s: retries = %d, want %d (four items, twice)", d.name, m.Retries, want)
		}
	}
}

// TestChaosReloadStormDuringFanout hammers the ring with concurrent reload
// broadcasts while batches and GETs are in flight at R=2: no request may see
// a 5xx, and every batch stays byte-identical. Run under -race (make chaos),
// this is also the fan-out's concurrency audit.
func TestChaosReloadStormDuringFanout(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	srv := httptest.NewServer(router)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/suggest/batch", "application/json", strings.NewReader(chaosBatchBody))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Reload storm: the shards can't reload (501) but the broadcast still
	// exercises the admin path concurrently with the fan-out; sprinkle
	// transient shard failures so failover runs during the storm too.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(srv.URL+"/v1/reload", "", nil)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Transient faults on a single shard only: at R=2 every item always has
	// one clean replica, so zero 5xx is a real invariant (faulting two shards
	// at once could legitimately exhaust an item's whole preference list).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			chaos.failNext(0, 1)
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(srv.URL+"/suggest/batch", "application/json", strings.NewReader(chaosBatchBody))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= http.StatusInternalServerError {
					errs <- fmt.Errorf("batch during storm: status %d: %s", resp.StatusCode, raw)
					return
				}
				if resp.StatusCode == http.StatusOK && stripTook(raw) != stripTook(want) {
					errs <- fmt.Errorf("batch during storm changed:\ngot:  %s\nwant: %s", raw, want)
					return
				}
				body, _, code := getBody(t, srv.URL+"/suggest?q=o2")
				if code >= http.StatusInternalServerError {
					errs <- fmt.Errorf("GET during storm: status %d: %s", code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChaosFlappingShard drives a shard through the breaker's full cycle:
// consecutive failures eject it ("ejected" in /healthz, traffic routed
// around it), the cool-down admits a half-open probe, and a healthy probe
// restores it to the walk ("healthy" again, serving traffic).
func TestChaosFlappingShard(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{
		Replicas:      2,
		FailThreshold: 3,
		ProbeAfter:    20 * time.Millisecond,
	})
	srv := httptest.NewServer(router)
	defer srv.Close()

	healthOf := func(shard int) fleet.ShardHealthStats {
		raw, _, _ := getBody(t, srv.URL+"/healthz")
		var h fleet.ShardRouterHealth
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		return h.ShardHealth[shard]
	}

	const victim = 1
	chaos.setDown(victim, true)
	// Push traffic until the victim accumulates FailThreshold consecutive
	// failures; every request still answers 200 off the surviving replica.
	for i := 0; i < 30 && healthOf(victim).State != "ejected"; i++ {
		for _, qs := range chaosGETQueries {
			if _, _, code := getBody(t, srv.URL+"/suggest?"+qs); code != http.StatusOK {
				t.Fatalf("GET %s during flap: status %d", qs, code)
			}
		}
	}
	if st := healthOf(victim); st.State != "ejected" || st.Ejections == 0 {
		t.Fatalf("victim never ejected: %+v", st)
	}

	// Ejected: the preference walk must skip it — no more transport calls.
	before := chaos.callCount(victim)
	for _, qs := range chaosGETQueries {
		getBody(t, srv.URL+"/suggest?"+qs)
	}
	if got := chaos.callCount(victim); got != before {
		t.Fatalf("ejected shard still saw %d calls", got-before)
	}

	// Revive, wait out the cool-down: the next touch probes and recovers.
	chaos.setDown(victim, false)
	time.Sleep(25 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for healthOf(victim).State != "healthy" {
		if time.Now().After(deadline) {
			t.Fatalf("victim never recovered: %+v", healthOf(victim))
		}
		for _, qs := range chaosGETQueries {
			if _, _, code := getBody(t, srv.URL+"/suggest?"+qs); code != http.StatusOK {
				t.Fatalf("GET %s during recovery: status %d", qs, code)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Recovered: the shard serves again.
	before = chaos.callCount(victim)
	for rep := 0; rep < 3; rep++ {
		for _, qs := range chaosGETQueries {
			getBody(t, srv.URL+"/suggest?"+qs)
		}
	}
	if chaos.callCount(victim) == before {
		t.Fatal("recovered shard got no traffic")
	}
}

// TestChaosGETHedge slows one shard far past the hedge delay: a GET whose
// primary is the slow shard must be answered by the hedged replica (first
// success wins), flagged X-Serve-Hedge: won, and counted in hedges_won.
func TestChaosGETHedge(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{
		Replicas:   2,
		HedgeAfter: 2 * time.Millisecond,
	})
	srv := httptest.NewServer(router)
	defer srv.Close()

	// Find a query whose primary we can slow down.
	raw, _, _ := getBody(t, srv.URL+"/v1/route?q=o2")
	var ri fleet.RouteResponse
	if err := json.Unmarshal(raw, &ri); err != nil {
		t.Fatal(err)
	}
	if len(ri.Replicas) != 2 {
		t.Fatalf("route replicas = %v, want 2", ri.Replicas)
	}
	chaos.setDelay(ri.Shard, 250*time.Millisecond)

	body, hdr, code := getBody(t, srv.URL+"/suggest?q=o2")
	if code != http.StatusOK {
		t.Fatalf("hedged GET status %d: %s", code, body)
	}
	if got := hdr.Get("X-Serve-Shard"); got != fmt.Sprint(ri.Replicas[1]) {
		t.Fatalf("hedged GET served by shard %s, want replica %d", got, ri.Replicas[1])
	}
	if hdr.Get("X-Serve-Hedge") != "won" {
		t.Fatalf("missing X-Serve-Hedge: won (headers %v)", hdr)
	}
	if hdr.Get("X-Serve-Attempts") != "2" {
		t.Fatalf("X-Serve-Attempts = %q, want 2", hdr.Get("X-Serve-Attempts"))
	}
	raw, _, _ = getBody(t, srv.URL+"/v1/metrics")
	var m fleet.ShardRouterMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Hedges == 0 || m.HedgesWon == 0 {
		t.Fatalf("hedge counters not moving: %+v", m)
	}
}

// TestChaosStrandedProbeRelease reproduces the hedge-race probe strand: an
// ejected shard's half-open probe claim rides on a GET attempt that loses the
// hedge race and is cancelled before it reports back. The loser drain must
// hand the claim back (or close the breaker when the loser genuinely
// answered) — without the release the breaker sticks at "probing" forever,
// every preference walk skips the shard, and it can never recover.
func TestChaosStrandedProbeRelease(t *testing.T) {
	router, chaos := newChaosRing(t, 2, fleet.RouterOptions{
		Replicas:      2,
		FailThreshold: 1,
		ProbeAfter:    5 * time.Millisecond,
		HedgeAfter:    100 * time.Microsecond,
	})
	srv := httptest.NewServer(router)
	defer srv.Close()

	healthOf := func(shard int) fleet.ShardHealthStats {
		raw, _, _ := getBody(t, srv.URL+"/healthz")
		var h fleet.ShardRouterHealth
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		return h.ShardHealth[shard]
	}

	// Find a query whose primary is shard 0, so its half-open probes ride
	// primary GET attempts that a fast hedge to shard 1 can beat.
	query := ""
	for _, qs := range chaosGETQueries {
		raw, _, _ := getBody(t, srv.URL+"/v1/route?"+qs)
		var ri fleet.RouteResponse
		if err := json.Unmarshal(raw, &ri); err != nil {
			t.Fatal(err)
		}
		if ri.Shard == 0 {
			query = qs
			break
		}
	}
	if query == "" {
		t.Fatal("no chaos query routes to shard 0")
	}

	// Eject shard 0: with FailThreshold 1 a single refused connection opens
	// the breaker, and the request still answers off the replica.
	chaos.setDown(0, true)
	if _, _, code := getBody(t, srv.URL+"/suggest?"+query); code != http.StatusOK {
		t.Fatalf("GET with primary down: status %d", code)
	}
	if st := healthOf(0); st.State != "ejected" {
		t.Fatalf("shard 0 not ejected after failure: %+v", st)
	}

	// Revive it slow. The next GET's preference walk claims the half-open
	// probe and rides it on the primary attempt; the 100µs hedge to shard 1
	// answers first and the probe-carrying loser is cancelled mid-delay.
	// (callCount is no proof here: pick()'s fail-open second pass can still
	// hedge onto a stranded shard, so the count grows either way.)
	chaos.setDown(0, false)
	chaos.setDelay(0, 50*time.Millisecond)
	time.Sleep(6 * time.Millisecond) // past the ejection cool-down

	for i := 0; i < 10; i++ {
		if _, _, code := getBody(t, srv.URL+"/suggest?"+query); code != http.StatusOK {
			t.Fatalf("GET during slow probing: status %d", code)
		}
	}
	// Quiesce: cancelled losers return immediately (the chaos delay is
	// ctx-cancellable) and the drain hands claims back within the sleep. A
	// breaker still reading "probing" with no probe in flight is stranded —
	// the released claim reads "ejected" (or "healthy" if a probe won).
	time.Sleep(50 * time.Millisecond)
	if st := healthOf(0); st.State == "probing" {
		t.Fatalf("probe claim stranded after losers drained: %+v", st)
	}

	// Drop the delay: the next probe answers before the hedge and closes the
	// breaker (or lands as a successful loser, which also closes it).
	chaos.setDelay(0, 0)
	deadline := time.Now().Add(2 * time.Second)
	for healthOf(0).State != "healthy" {
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 never recovered: %+v", healthOf(0))
		}
		getBody(t, srv.URL+"/suggest?"+query)
		time.Sleep(time.Millisecond)
	}
}

// routerTraces fetches and decodes the router's GET /v1/traces endpoint.
func routerTraces(t *testing.T, base string) map[string]obs.TraceView {
	t.Helper()
	raw, _, code := getBody(t, base+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces status %d: %s", code, raw)
	}
	var resp struct {
		SlowThresholdMicros int64           `json:"slow_threshold_us"`
		Count               int             `json:"count"`
		Traces              []obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]obs.TraceView, len(resp.Traces))
	for _, v := range resp.Traces {
		byID[v.ID] = v
	}
	return byID
}

// spanUnionMicros returns the total length of the union of the span
// intervals [start, start+dur). Hedged attempts overlap, so a naive sum can
// exceed the trace total; the union cannot.
func spanUnionMicros(spans []obs.SpanView) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		ivs = append(ivs, iv{s.StartMicros, s.StartMicros + s.DurMicros})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, hi int64
	hi = -1
	for _, v := range ivs {
		if v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}

// TestChaosTraceHedgedFailover drives one hedged GET (slow primary, hedge
// wins) and one failed-over GET (dead primary, second replica answers) and
// asserts the router's /v1/traces shows both requests with per-attempt
// "shard" child spans carrying the shard IDs and outcomes, plus the
// hedge-fire annotation — and that the spans stay inside the recorded
// total (as an interval union: hedged attempts overlap in time).
func TestChaosTraceHedgedFailover(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{
		Replicas:   2,
		HedgeAfter: 2 * time.Millisecond,
	})
	srv := httptest.NewServer(router)
	defer srv.Close()

	raw, _, _ := getBody(t, srv.URL+"/v1/route?q=o2")
	var ri fleet.RouteResponse
	if err := json.Unmarshal(raw, &ri); err != nil {
		t.Fatal(err)
	}
	primary, backup := ri.Shard, ri.Replicas[1]

	// Hedged: the primary is slow, the 2ms hedge to the backup wins, the
	// primary attempt is cancelled on the way out.
	chaos.setDelay(primary, 250*time.Millisecond)
	body, hdr, code := getBody(t, srv.URL+"/suggest?q=o2")
	if code != http.StatusOK {
		t.Fatalf("hedged GET status %d: %s", code, body)
	}
	hedgeID := hdr.Get("X-Trace-Id")
	chaos.setDelay(primary, 0)

	// Failed-over: the primary refuses outright, the walk retries the backup.
	chaos.setDown(primary, true)
	body, hdr, code = getBody(t, srv.URL+"/suggest?q=o2")
	if code != http.StatusOK {
		t.Fatalf("failed-over GET status %d: %s", code, body)
	}
	failoverID := hdr.Get("X-Trace-Id")
	chaos.setDown(primary, false)

	if len(hedgeID) != 16 || len(failoverID) != 16 {
		t.Fatalf("trace IDs = %q, %q; want 16 hex chars each", hedgeID, failoverID)
	}
	traces := routerTraces(t, srv.URL)

	// outcomesOf collects shard-span outcomes keyed by shard ID.
	outcomesOf := func(v obs.TraceView) map[int][]string {
		out := make(map[int][]string)
		for _, s := range v.Spans {
			if s.Name == "shard" {
				out[s.Shard] = append(out[s.Shard], s.Outcome)
			}
		}
		return out
	}
	hasOutcome := func(m map[int][]string, shard int, want string) bool {
		for _, o := range m[shard] {
			if o == want {
				return true
			}
		}
		return false
	}

	hv, ok := traces[hedgeID]
	if !ok {
		t.Fatalf("hedged trace %s not retained (have %d traces)", hedgeID, len(traces))
	}
	ho := outcomesOf(hv)
	if len(ho) < 2 {
		t.Fatalf("hedged trace has shard spans for %d shards, want 2: %+v", len(ho), hv.Spans)
	}
	if !hasOutcome(ho, primary, "cancelled") {
		t.Fatalf("hedged trace: primary %d not cancelled: %+v", primary, hv.Spans)
	}
	if !hasOutcome(ho, backup, "hedge-won") {
		t.Fatalf("hedged trace: backup %d did not win the hedge: %+v", backup, hv.Spans)
	}
	sawFire := false
	for _, s := range hv.Spans {
		if s.Name == "hedge-fire" && s.Shard == backup && s.Outcome == "fired" {
			sawFire = true
		}
	}
	if !sawFire {
		t.Fatalf("hedged trace missing hedge-fire event: %+v", hv.Spans)
	}
	// Attempts overlap, so check the interval union, not the sum. Allow the
	// microsecond truncation of independent clock reads.
	if got := spanUnionMicros(hv.Spans); got > hv.TotalMicros+5 {
		t.Fatalf("hedged trace span union %dus exceeds total %dus", got, hv.TotalMicros)
	}

	fv, ok := traces[failoverID]
	if !ok {
		t.Fatalf("failed-over trace %s not retained (have %d traces)", failoverID, len(traces))
	}
	fo := outcomesOf(fv)
	if !hasOutcome(fo, primary, "error") {
		t.Fatalf("failed-over trace: primary %d did not error: %+v", primary, fv.Spans)
	}
	if !hasOutcome(fo, backup, "ok") {
		t.Fatalf("failed-over trace: backup %d did not answer: %+v", backup, fv.Spans)
	}
	if got := spanUnionMicros(fv.Spans); got > fv.TotalMicros+5 {
		t.Fatalf("failed-over trace span union %dus exceeds total %dus", got, fv.TotalMicros)
	}
}
