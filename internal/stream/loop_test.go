package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/logfmt"
	"repro/internal/loggen"
	"repro/internal/serve"
)

// TestLoopStreamToServing is the headline end-to-end test of the closed
// loop: live traffic streams into a query log, the ingester tails it behind
// the write-log, recompiles snapshots and pushes them at a real serving fleet
// over HTTP as a weight-0 shadow challenger, and the ramp scheduler walks the
// challenger up to live weight and promotes it — after which the fleet serves
// queries from vocabulary that did not exist when the seed model was trained.
//
//	loggen → queries.log → Ingester (WAL) → POST /v1/reload?model=challenger
//	       → shadow scoring → Ramp → promotion → new vocabulary served
func TestLoopStreamToServing(t *testing.T) {
	dir := t.TempDir()

	// ---- Seed: train the champion on pre-drift traffic only. Late-onset
	// topics stay locked, so their vocabulary is absent from the seed model.
	cfg := loggen.DefaultConfig()
	cfg.Universe = loggen.UniverseConfig{
		Topics: 12, RootsPerTopic: 4, ChainDepth: 2,
		SynonymFrac: 0.3, Universals: 6, Generics: 4, Seed: 21,
	}
	cfg.Machines = 25
	cfg.LateTopicEvery = 3
	cfg.Seed = 21
	g, err := loggen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainCfg := core.Config{ReductionThreshold: 0, SessionGap: 30 * time.Minute}
	seedInc := core.NewIncremental(nil, trainCfg)
	for _, ls := range g.GenerateSessions(150) {
		seedInc.AddStrings([][]string{ls.Queries})
	}
	seedPath := filepath.Join(dir, "seed.bin")
	if _, err := seedInc.SnapshotTo(seedPath); err != nil {
		t.Fatal(err)
	}

	// ---- Fleet: champion serves all traffic; challenger is declared at
	// weight 0 (shadow) and reloads from the path the ingester snapshots to.
	champ, err := core.LoadPath(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	chalSeed, err := core.LoadPath(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "challenger.bin")
	reg := fleet.NewRegistry(0)
	if _, err := reg.Add("champion", champ, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("challenger", chalSeed, func() (core.Recommender, error) {
		return core.LoadAnyPath(modelPath, core.LoadOptions{})
	}); err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.NewRouter(reg,
		fleet.ArmSpec{Name: "champion", Weight: 100},
		fleet.ArmSpec{Name: "challenger", Weight: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var ing *Ingester
	handler := serve.New(champ, serve.Options{
		DefaultN: 5,
		Fleet:    rt,
		IngestStatus: func() any {
			if ing == nil {
				return Status{}
			}
			return ing.Status()
		},
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// ---- Live traffic: the same generator enters the test phase, unlocking
	// late topics — the post-training query-trend drift. Every record goes to
	// the log the ingester tails.
	g.EnterTestPhase()
	logPath := filepath.Join(dir, "queries.log")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	liveSessions, logBytes := writeLiveTraffic(t, g, f, 150)
	t.Logf("live traffic: %d sessions, %d log bytes", len(liveSessions), logBytes)

	// New-vocabulary probes: multi-query sessions (from the early part of the
	// stream, so they complete before the last push) whose first query the
	// seed model has never seen.
	var probes []string
	for _, ls := range liveSessions[:100] {
		if len(ls.Queries) < 2 {
			continue
		}
		if _, known := champ.Dict().Lookup(ls.Queries[0]); !known {
			probes = append(probes, ls.Queries[0])
		}
	}
	if len(probes) < 3 {
		t.Fatalf("only %d new-vocabulary probe sessions in live traffic — raise drift", len(probes))
	}

	// Before the loop runs, the fleet cannot serve any probe: the query is
	// not in the interning base, so the context interns to nothing.
	for _, q := range probes {
		if n := suggestCount(t, srv.URL, q); n != 0 {
			t.Fatalf("probe %q served %d suggestions by the seed model — not new vocabulary", q, n)
		}
	}

	// ---- Ramp: armed by the first push, walks 5 → 25 and promotes. Created
	// before ingestion so the push's generation change is observed.
	ramp, err := fleet.NewRamp(rt, "challenger", fleet.RampPolicy{
		Steps:      []uint32{5, 25},
		Hold:       time.Millisecond,
		MinSamples: 8,
		Promote:    true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// ---- Ingest: tail the log through the write-log, recompile every 30
	// sessions, push snapshots at the serving fleet over real HTTP.
	genBefore := rt.Arm(1).Slot().State().Gen
	baseBefore := rt.BaseDictHash()
	ing, err = NewIngester(Config{
		LogPath:           logPath,
		WALPath:           filepath.Join(dir, "ingest.wal"),
		ModelPath:         modelPath,
		BaseVocab:         champ.Dict().Strings(),
		Train:             trainCfg,
		SegmentRecords:    16,
		RecompileSessions: 30,
		Push: func(path string) error {
			resp, err := http.Post(srv.URL+"/v1/reload?model=challenger", "", nil)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("reload: HTTP %d", resp.StatusCode)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	drain(t, ing)

	st := ing.Status()
	if st.Recompiles == 0 || st.Pushes == 0 || st.PushErrors != 0 {
		t.Fatalf("ingestion made no pushes: %+v", st)
	}
	if gen := rt.Arm(1).Slot().State().Gen; gen <= genBefore {
		t.Fatalf("challenger generation = %d, want > %d after %d pushes", gen, genBefore, st.Pushes)
	}
	if rt.Arm(1).Weight() != 0 {
		t.Fatal("challenger has live weight before the ramp ticked")
	}
	if rt.BaseDictHash() != baseBefore {
		t.Fatal("interning base advanced before promotion — champion still owns it")
	}
	// The streamed challenger must extend the champion's dictionary (the
	// push went through the compatibility gate, not around it).
	if !rt.Arm(1).Slot().State().Rec.Dict().Extends(champ.Dict()) {
		t.Fatal("challenger dictionary does not extend the champion's")
	}

	// /v1/ingest exposes the loop's state through the serving process.
	var ingStatus Status
	resp, err := http.Get(srv.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ingStatus); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ingStatus.Sessions != st.Sessions || ingStatus.Pushes != st.Pushes {
		t.Fatalf("/v1/ingest = %+v, want %+v", ingStatus, st)
	}

	// ---- Ramp to promotion: serve champion-vocabulary traffic so the async
	// shadow scorer accumulates samples, tick the scheduler, and watch the
	// challenger walk 0 → 5 → 25 → champion.
	var feed []string
	for _, q := range champ.Dict().Strings() {
		feed = append(feed, q)
		if len(feed) == 32 {
			break
		}
	}
	sawLiveWeight := false
	deadline := time.Now().Add(15 * time.Second)
	var rampSt fleet.RampStatus
	for {
		for _, q := range feed {
			suggestCount(t, srv.URL, q)
		}
		rampSt = ramp.Tick(time.Now())
		if rampSt.Frozen {
			t.Fatalf("ramp froze: %s", rampSt.Reason)
		}
		if w := rt.Arm(1).Weight(); w > 0 {
			sawLiveWeight = true
		}
		if rampSt.Promotions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ramp never promoted: %+v, shadow samples %d", rampSt, shadowSamples(rt))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawLiveWeight {
		t.Fatal("challenger was promoted without ever holding live weight mid-ramp")
	}

	// ---- After promotion: the champion slot carries the streamed model, the
	// interning base advanced, and the new vocabulary is servable. At least
	// one probe must yield actual suggestions (its session was ingested), and
	// every probe must now intern.
	if rt.BaseDictHash() == baseBefore {
		t.Fatal("interning base did not advance on promotion")
	}
	served := 0
	for _, q := range probes {
		if suggestCount(t, srv.URL, q) > 0 {
			served++
		}
	}
	if served == 0 {
		t.Fatalf("no probe out of %d served suggestions after promotion", len(probes))
	}
	t.Logf("loop closed: %d sessions ingested, %d pushes, ramp %+v, %d/%d new-vocabulary probes served",
		st.Sessions, st.Pushes, rampSt, served, len(probes))
}

// writeLiveTraffic streams n generated sessions into w as logfmt records and
// returns the labeled ground truth and byte count.
func writeLiveTraffic(t *testing.T, g *loggen.Generator, f *os.File, n int) ([]loggen.LabeledSession, int64) {
	t.Helper()
	wr := logfmt.NewWriter(f)
	sessions, err := g.GenerateRecords(n, wr.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	off, err := f.Seek(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sessions, off
}

// suggestCount GETs /suggest?q=<q> and returns how many suggestions came back.
func suggestCount(t *testing.T, base, q string) int {
	t.Helper()
	resp, err := http.Get(base + "/suggest?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr serve.SuggestResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("suggest %q: %v", q, err)
	}
	return len(sr.Suggestions)
}

func shadowSamples(rt *fleet.Router) uint64 {
	if s, ok := rt.ShadowStatsFor("challenger"); ok {
		return s.Samples
	}
	return 0
}
