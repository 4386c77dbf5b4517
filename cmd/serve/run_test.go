package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/logfmt"
	"repro/internal/loggen"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stream"
)

// mustConfig parses and validates a command line the test expects to hold.
func mustConfig(t *testing.T, args ...string) *config {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return cfg
}

// running is one run on a loopback listener.
type running struct {
	base   string
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

// startRun runs args on ln (a new loopback listener when nil) and returns
// the run and the channel its hup reads. The run is stopped at cleanup.
func startRun(t *testing.T, ln net.Listener, args ...string) (*running, chan os.Signal) {
	t.Helper()
	cfg := mustConfig(t, args...)
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	hup := make(chan os.Signal, 1)
	go func() { r.done <- run(ctx, cfg, ln, hup) }()
	t.Cleanup(func() { r.stop() })
	return r, hup
}

// stop cancels the run's context and returns what run returned.
func (r *running) stop() error {
	r.once.Do(func() {
		r.cancel()
		r.err = <-r.done
	})
	return r.err
}

// getJSON GETs url with client and decodes the body into v.
func getJSON(t *testing.T, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// publishModel trains a model on sessions over the queries of vocab, in
// that order (so a longer vocab with the same prefix extends a shorter
// one ID for ID), publishes it at path and returns it loaded back, as a
// server serves it.
func publishModel(t *testing.T, path string, vocab []string, sessions ...[]string) *core.Engine {
	t.Helper()
	d := query.NewDict()
	for _, q := range vocab {
		d.Intern(q)
	}
	var seqs []query.Seq
	for _, s := range sessions {
		var seq query.Seq
		for _, q := range s {
			seq = append(seq, d.Intern(q))
		}
		seqs = append(seqs, seq)
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	if err := core.Publish(path, core.TrainFromSessions(d, seqs, cfg)); err != nil {
		t.Fatal(err)
	}
	eng, err := core.LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// repeat returns n copies of session.
func repeat(n int, session ...string) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = session
	}
	return out
}

// traffic is a seeded generator of search-log sessions over a small query
// universe.
func traffic(t *testing.T) *loggen.Generator {
	t.Helper()
	cfg := loggen.DefaultConfig()
	cfg.Universe = loggen.UniverseConfig{
		Topics: 12, RootsPerTopic: 4, ChainDepth: 2,
		SynonymFrac: 0.3, Universals: 6, Generics: 4, Seed: 21,
	}
	cfg.Machines = 25
	cfg.Seed = 21
	g, err := loggen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seedFromTraffic publishes at path a model trained on n sessions of g.
func seedFromTraffic(t *testing.T, g *loggen.Generator, n int, path string) {
	t.Helper()
	inc := core.NewIncremental(nil, core.Config{ReductionThreshold: 0, SessionGap: 30 * time.Minute})
	for _, ls := range g.GenerateSessions(n) {
		inc.AddStrings([][]string{ls.Queries})
	}
	if _, err := inc.SnapshotTo(path); err != nil {
		t.Fatal(err)
	}
}

// appendTraffic appends n sessions of g to the query log at path and
// returns the log's size.
func appendTraffic(t *testing.T, g *loggen.Generator, path string, n int) int64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wr := logfmt.NewWriter(f)
	if _, err := g.GenerateRecords(n, wr.Write); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// resumeStatus opens a new ingester on the write-log of the run that used
// seed, log and wal, and returns the status it resumes at.
func resumeStatus(t *testing.T, seed, log, wal string) stream.Status {
	t.Helper()
	eng, err := core.LoadPath(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ing, err := stream.NewIngester(stream.Config{
		LogPath:   log,
		WALPath:   wal,
		ModelPath: filepath.Join(t.TempDir(), "unused.bin"),
		BaseVocab: eng.Dict().Strings(),
		Train:     core.Config{ReductionThreshold: 0, SessionGap: 30 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	return ing.Status()
}

// TestValidateNamesTheFlag: every combination no role can run is refused
// before anything is loaded, by an error that names the flag at fault.
func TestValidateNamesTheFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-role", "proxy"}, "-role"},
		{[]string{"-role", "router"}, "-shards"},
		{[]string{"-role", "router", "-shards", "0"}, "-shards"},
		{[]string{"-arms", "champion"}, "-arms"},
		{[]string{"-arms", "champion=a.bin:heavy"}, "-arms"},
		{[]string{"-arms", "c=a.bin,challenger=b.bin:0", "-ingest-log", "q.log", "-ramp", "1,five"}, "-ramp"},
		{[]string{"-arms", "c=a.bin,next=b.bin:0", "-ingest-log", "q.log"}, "-ingest-arm"},
		{[]string{"-ingest-log", "q.log"}, "-ingest-arm"},
		{[]string{"-arms", "c=a.bin,challenger=b.bin:0", "-ramp", "1,5"}, "-ramp"},
		{[]string{"-role", "router", "-shards", "2", "-ingest-log", "q.log"}, "-ingest-log"},
		{[]string{"-role", "router", "-shards", "2", "-ramp", "1"}, "-ramp"},
		{[]string{"-role", "ingest"}, "-ingest-log"},
		{[]string{"-role", "ingest", "-ingest-log", "q.log", "-ramp", "1"}, "-ramp"},
		{[]string{"-ingest-push", "http://localhost:8080"}, "-ingest-push"},
		{[]string{"-role", "router", "-shards", "2", "-ingest-push", "http://localhost:8080"}, "-ingest-push"},
		{[]string{"-ingest-once"}, "-ingest-once"},
		{[]string{"-addr", ""}, "-addr"},
	} {
		_, err := parseFlags(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%q: err = %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-role", "shard", "-model", "m.bin"},
		{"-role", "router", "-shards", "3", "-replicas", "2"},
		{"-role", "router", "-shards", "http://a:8080,http://b:8080"},
		{"-arms", "c=a.bin,challenger=b.bin:0", "-ingest-log", "q.log", "-ramp", "1,5,25", "-ramp-promote"},
		{"-role", "ingest", "-model", "", "-ingest-log", "q.log", "-ingest-push", "http://localhost:8080", "-ingest-once", "-addr", ""},
	} {
		mustConfig(t, args...)
	}
	n := 0
	bindFlags(&config{}).VisitAll(func(*flag.Flag) { n++ })
	if n > 30 {
		t.Errorf("the command defines %d flags, want at most 30", n)
	}
}

// TestIngestRoleDrainsPushesAndResumes: -role ingest with -ingest-once
// drains the log, recompiles, pushes each snapshot at a fleet over HTTP and
// returns nil; a second run against the same write-log replays it and
// counts nothing twice.
func TestIngestRoleDrainsPushesAndResumes(t *testing.T) {
	dir := t.TempDir()
	g := traffic(t)
	seed := filepath.Join(dir, "seed.bin")
	seedFromTraffic(t, g, 150, seed)
	champ, err := core.LoadPath(seed)
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.LoadPath(seed)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := filepath.Join(dir, "challenger.bin")
	reg := fleet.NewRegistry(0)
	if _, err := reg.Add("champion", champ, nil); err != nil {
		t.Fatal(err)
	}
	slot, err := reg.Add("challenger", first, func() (core.Recommender, error) { return core.LoadPath(snapshot) })
	if err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.NewRouter(reg, fleet.ArmSpec{Name: "champion", Weight: 1}, fleet.ArmSpec{Name: "challenger"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fleetHandler := serve.New(champ, serve.Options{Fleet: rt})
	var mu sync.Mutex
	var reloads []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reloads = append(reloads, r.Method+" "+r.URL.RequestURI())
		mu.Unlock()
		fleetHandler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	g.EnterTestPhase()
	logPath, wal := filepath.Join(dir, "queries.log"), filepath.Join(dir, "ingest.wal")
	size := appendTraffic(t, g, logPath, 150)
	cfg := mustConfig(t, "-role", "ingest", "-model", seed, "-addr", "",
		"-ingest-log", logPath, "-ingest-wal", wal, "-ingest-model", snapshot,
		"-ingest-recompile", "40", "-ingest-threshold", "0",
		"-ingest-push", srv.URL, "-ingest-arm", "challenger", "-ingest-once")
	gen0 := slot.State().Gen
	if err := run(context.Background(), cfg, nil, nil); err != nil {
		t.Fatalf("run -ingest-once = %v, want nil", err)
	}
	mu.Lock()
	pushes := append([]string(nil), reloads...)
	mu.Unlock()
	if len(pushes) == 0 {
		t.Fatal("no push reached the fleet")
	}
	for _, p := range pushes {
		if p != "POST /v1/reload?model=challenger" {
			t.Fatalf("the fleet saw %q, want POST /v1/reload?model=challenger", p)
		}
	}
	if gen := slot.State().Gen; gen != gen0+uint64(len(pushes)) {
		t.Fatalf("challenger generation %d after %d pushes from %d", gen, len(pushes), gen0)
	}
	st := resumeStatus(t, seed, logPath, wal)
	if st.LogOffset != size || st.Sessions == 0 || st.Recompiles != 0 && st.Replayed == 0 {
		t.Fatalf("after the drain the write-log resumes at %+v, want log offset %d and the sessions counted", st, size)
	}

	if err := run(context.Background(), cfg, nil, nil); err != nil {
		t.Fatalf("second run -ingest-once = %v, want nil", err)
	}
	again := resumeStatus(t, seed, logPath, wal)
	if again.Sessions != st.Sessions || again.LogOffset != size || again.Replayed == 0 {
		t.Fatalf("after a restart the write-log holds %+v, want the %d sessions of %+v once", again, st.Sessions, st)
	}
}

// watchedListener signals on read each time a connection it accepted
// reads bytes from its client.
type watchedListener struct {
	net.Listener
	read chan struct{}
}

func (l *watchedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &watchedConn{Conn: c, read: l.read}, nil
}

type watchedConn struct {
	net.Conn
	read chan struct{}
}

func (c *watchedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		select {
		case c.read <- struct{}{}:
		default:
		}
	}
	return n, err
}

// TestRunDrainsInFlightBatch: when ctx ends while a batch is in flight, the
// listener closes at once, the batch still finishes 200 with its whole
// body, and run returns within -drain.
func TestRunDrainsInFlightBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	publishModel(t, path, []string{"o2", "o2 mobile"}, repeat(10, "o2", "o2 mobile")...)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &watchedListener{Listener: inner, read: make(chan struct{}, 1)}
	const drain = 5 * time.Second
	r, _ := startRun(t, ln, "-model", path, "-quiet", "-drain", drain.String())

	var items []string
	for i := 0; i < 64; i++ {
		items = append(items, `{"context":["o2"]}`)
	}
	body := `{"requests":[` + strings.Join(items, ",") + `]}`
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := len(body) / 2
	fmt.Fprintf(conn, "POST /suggest/batch HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:half])
	select {
	case <-ln.read:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never read the request")
	}

	stopped := time.Now()
	r.cancel()
	for {
		c, err := net.DialTimeout("tcp", inner.Addr().String(), time.Second)
		if err != nil {
			break // refused: the listener is closed
		}
		c.Close()
		if time.Since(stopped) > drain {
			t.Fatal("new connections still accepted after ctx ended")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := io.WriteString(conn, body[half:]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var br serve.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(br.Results) != len(items) {
		t.Fatalf("in-flight batch: HTTP %d, %d of %d results (%v)", resp.StatusCode, len(br.Results), len(items), err)
	}
	for i, res := range br.Results {
		if len(res.Suggestions) == 0 || res.Suggestions[0].Query != "o2 mobile" {
			t.Fatalf("result %d = %+v, want o2 mobile first", i, res)
		}
	}
	if err := r.stop(); err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
	if took := time.Since(stopped); took > drain {
		t.Fatalf("run returned %s after ctx ended, -drain is %s", took, drain)
	}
}

// TestRunStopsEverythingItStarts: a fleet with the embedded ingestion loop
// and a ramp ingests a log; once ctx ends no goroutine run started is left,
// and a new ingester on the write-log resumes where the loop last reported.
func TestRunStopsEverythingItStarts(t *testing.T) {
	dir := t.TempDir()
	g := traffic(t)
	seed := filepath.Join(dir, "seed.bin")
	seedFromTraffic(t, g, 150, seed)
	challenger := filepath.Join(dir, "challenger.bin")
	if err := os.Link(seed, challenger); err != nil {
		t.Fatal(err)
	}
	logPath, wal := filepath.Join(dir, "queries.log"), filepath.Join(dir, "ingest.wal")
	g.EnterTestPhase()
	size := appendTraffic(t, g, logPath, 150)

	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	before := runtime.NumGoroutine()
	r, _ := startRun(t, nil, "-quiet", "-arms", "champion="+seed+",challenger="+challenger+":0",
		"-ingest-log", logPath, "-ingest-wal", wal, "-ingest-model", challenger,
		"-ingest-recompile", "40", "-ingest-threshold", "0", "-ingest-poll", "5ms",
		"-ramp", "1,5", "-ramp-every", "5ms", "-ramp-hold", "5ms", "-ramp-min-samples", "1")
	var last stream.Status
	for deadline := time.Now().Add(10 * time.Second); ; {
		getJSON(t, client, r.base+"/v1/ingest", &last)
		if last.LogOffset == size && last.Pushes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the loop never caught up with the %d-byte log: %+v", size, last)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.stop(); err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
	client.CloseIdleConnections()
	noneOutlive(t, before)
	if st := resumeStatus(t, seed, logPath, wal); st.LogOffset != last.LogOffset || st.Sessions != last.Sessions {
		t.Fatalf("a new ingester resumes at offset %d with %d sessions, the loop last reported %d and %d",
			st.LogOffset, st.Sessions, last.LogOffset, last.Sessions)
	}
}

// noneOutlive fails the test unless the goroutine count falls back to
// before within two seconds.
func noneOutlive(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive run (%d before):\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestRouterRunClosesShardConnections: a router over shard URLs keeps
// keep-alive connections to its shards while it serves; once run returns
// none is left, nor the goroutines that served them.
func TestRouterRunClosesShardConnections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	eng := publishModel(t, path, []string{"o2", "o2 mobile"}, repeat(10, "o2", "o2 mobile")...)
	shardA := httptest.NewServer(serve.New(eng, serve.Options{}))
	defer shardA.Close()
	shardB := httptest.NewServer(serve.New(eng, serve.Options{}))
	defer shardB.Close()
	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	before := runtime.NumGoroutine()
	r, _ := startRun(t, nil, "-role", "router", "-shards", shardA.URL+","+shardB.URL, "-quiet")
	var sr serve.SuggestResponse
	for i := 0; i < 4; i++ {
		getJSON(t, client, r.base+"/suggest?q=o2", &sr)
	}
	if err := r.stop(); err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
	client.CloseIdleConnections()
	noneOutlive(t, before)
}

// tookUS is the one field of a /suggest body that differs between two
// answers of the same model.
var tookUS = regexp.MustCompile(`"took_us":\d+`)

// reference returns the body a handler over eng alone answers target with,
// took_us blanked.
func reference(eng *core.Engine, target string) string {
	rr := httptest.NewRecorder()
	serve.New(eng, serve.Options{}).ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
	return tookUS.ReplaceAllString(rr.Body.String(), `"took_us":0`)
}

// TestHUPReloadsUnderTraffic: a model that extends the vocabulary is
// published onto the served path and a hup arrives while GETs run; every
// answer is the old model's or the new one's, byte for byte, and once the
// reload has landed only the new one's.
func TestHUPReloadsUnderTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	oldEng := publishModel(t, path, []string{"o2", "o2 mobile"}, repeat(10, "o2", "o2 mobile")...)
	r, hup := startRun(t, nil, "-model", path, "-quiet")
	const target = "/suggest?q=o2"
	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	get := func() string {
		resp, err := client.Get(r.base + target)
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return tookUS.ReplaceAllString(string(b), `"took_us":0`)
	}
	oldRef := reference(oldEng, target)
	if got := get(); got != oldRef {
		t.Fatalf("before the reload: %s, want %s", got, oldRef)
	}
	var health serve.Health
	getJSON(t, client, r.base+"/healthz", &health)
	gen0 := health.Generation

	sessions := append(repeat(10, "o2", "o2 mobile"), repeat(30, "o2", "o2 priority")...)
	newEng := publishModel(t, path, []string{"o2", "o2 mobile", "o2 priority"}, sessions...)
	newRef := reference(newEng, target)
	if newRef == oldRef {
		t.Fatal("the two models answer alike: the test shows nothing")
	}

	// Four clients GET in a loop; each answer is counted, and once the
	// reload has landed, counted again among those sent after it.
	var landed, stop atomic.Bool
	var answers, answersAfter, sawNew atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				after := landed.Load()
				switch got := get(); {
				case got == newRef:
					sawNew.Add(1)
				case got != oldRef:
					t.Errorf("answer %s is neither model's", got)
				case after:
					t.Errorf("old answer after the reload landed: %s", got)
				}
				answers.Add(1)
				if after {
					answersAfter.Add(1)
				}
			}
		}()
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("%s never happened", what)
			}
		}
	}
	waitFor("traffic", func() bool { return answers.Load() >= 40 })
	hup <- syscall.SIGHUP
	waitFor("the reload", func() bool {
		getJSON(t, client, r.base+"/healthz", &health)
		return health.Generation > gen0
	})
	landed.Store(true)
	waitFor("traffic after the reload", func() bool { return answersAfter.Load() >= 40 })
	stop.Store(true)
	wg.Wait()
	if sawNew.Load() == 0 {
		t.Fatal("no answer came from the new model")
	}
	if err := r.stop(); err != nil {
		t.Fatalf("run = %v, want nil", err)
	}
}
