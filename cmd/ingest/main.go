// Command ingest closes the training loop: it tails a growing query log,
// folds completed sessions into an incremental count store behind a durable
// append-only write-log (crash-safe: tentative segment entries are replayed
// on restart, so no session is double-counted or lost), recompiles a model
// snapshot in the background every -recompile sessions and pushes each new
// generation at a serving fleet as the named challenger arm.
//
// Standalone, pushing at a running `serve -arms ...` fleet:
//
//	ingest -log queries.log -wal ingest.wal -model-out challenger.bin \
//	       -base-from seed.bin -push http://localhost:8080 -push-model challenger
//
// One-shot batch catch-up (drain the log, recompile, exit):
//
//	ingest -log queries.log -wal ingest.wal -model-out model.bin -once
//
// The write-log pins the base vocabulary and session gap: restarting with a
// different -base-from or -gap against the same -wal is refused rather than
// silently mixing incompatible counts. Delete the write-log to start over.
//
// See ARCHITECTURE.md §7 for the write-log byte format and the
// tentative/committed state machine; cmd/serve embeds this same loop behind
// its -ingest-log flag, where /v1/ingest exposes the Status of the loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ingest: ")
	var (
		logPath     = flag.String("log", "queries.log", "growing source query log to tail (logfmt records)")
		walPath     = flag.String("wal", "ingest.wal", "durable write-log path (created if absent, replayed if present)")
		modelOut    = flag.String("model-out", "challenger.bin", "recompiled snapshot output path (atomic replace)")
		baseFrom    = flag.String("base-from", "", "model file whose dictionary seeds the trainer, keeping every snapshot reload-compatible with it (empty = fresh vocabulary)")
		pushURL     = flag.String("push", "", "serving fleet base URL to push snapshots at (empty = recompile only)")
		pushModel   = flag.String("push-model", "challenger", "fleet arm name reloaded on push (POST /v1/reload?model=<name>)")
		gap         = flag.Duration("gap", 30*time.Minute, "session gap: queries of one machine further apart start a new session")
		segment     = flag.Int("segment-records", 256, "records folded into one write-log segment entry")
		recompile   = flag.Uint64("recompile", 5000, "completed sessions between background recompiles")
		threshold   = flag.Int("threshold", 2, "drop session patterns seen fewer times at recompile (-1 = keep all)")
		poll        = flag.Duration("poll", 200*time.Millisecond, "tail poll interval when caught up with the log writer")
		once        = flag.Bool("once", false, "drain the log, recompile once and exit (batch catch-up mode)")
		metricsAddr = flag.String("metrics-addr", "", "optional listen address serving the standalone loop's admin surface: /metrics (Prometheus text), /v1/metrics, /v1/traces, /v1/ingest (empty = no listener)")
	)
	flag.Parse()

	oreg := obs.NewRegistry()
	// Tail-sample against the segment-fold histogram: a retained ingest trace
	// is one whose whole step ran slower than recent p99 folds (or errored).
	tracer := obs.NewTracer(128, oreg.Histogram("ingest_segment_us"))

	cfg := stream.Config{
		LogPath:           *logPath,
		WALPath:           *walPath,
		ModelPath:         *modelOut,
		Train:             core.Config{ReductionThreshold: *threshold, SessionGap: *gap},
		SegmentRecords:    *segment,
		RecompileSessions: *recompile,
		Obs:               oreg,
		Tracer:            tracer,
	}
	if *baseFrom != "" {
		base, err := core.LoadAnyPath(*baseFrom, core.LoadOptions{})
		if err != nil {
			log.Fatalf("-base-from %s: %v", *baseFrom, err)
		}
		cfg.BaseVocab = base.Dict().Strings()
		log.Printf("trainer seeded with %d base queries from %s (snapshots stay reload-compatible)",
			len(cfg.BaseVocab), *baseFrom)
	}
	if *pushURL != "" {
		target := *pushURL + "/v1/reload?model=" + *pushModel
		client := &http.Client{Timeout: 30 * time.Second}
		cfg.Push = func(modelPath string) error {
			resp, err := client.Post(target, "", nil)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST %s: HTTP %d", target, resp.StatusCode)
			}
			log.Printf("pushed %s at %s", modelPath, target)
			return nil
		}
	}

	ing, err := stream.NewIngester(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ing.Close()
	st := ing.Status()
	if st.Replayed > 0 || st.TornTailBytes > 0 {
		log.Printf("write-log replayed: %d segment entries (%d sessions, vocab %d), %d torn bytes discarded, resuming at log offset %d",
			st.Replayed, st.Sessions, st.Vocab, st.TornTailBytes, st.LogOffset)
	}

	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, adminHandler(oreg, tracer, ing.Status)); err != nil {
				log.Printf("metrics listener %s: %v", *metricsAddr, err)
			}
		}()
		log.Printf("admin: /metrics, /v1/metrics, /v1/traces and /v1/ingest on %s", *metricsAddr)
	}

	if *once {
		for {
			progressed, err := ing.Step()
			if err != nil {
				log.Fatal(err)
			}
			if !progressed {
				break
			}
		}
		final := ing.Status()
		log.Printf("drained: %d sessions (%d still open) from %d log bytes, %d recompiles, %d pushes",
			final.Sessions, final.OpenSessions, final.LogOffset, final.Recompiles, final.Pushes)
		return
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		t := time.NewTicker(time.Minute)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s := ing.Status()
				log.Printf("tailing: offset %d, %d sessions (%d open), %d recompiles, %d pushes (%d failed)",
					s.LogOffset, s.Sessions, s.OpenSessions, s.Recompiles, s.Pushes, s.PushErrors)
			}
		}
	}()
	log.Printf("tailing %s (write-log %s, recompile every %d sessions)", *logPath, *walPath, *recompile)
	if err := ing.Run(ctx, *poll); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
	log.Print("bye")
}

// adminHandler serves the standalone loop's admin surface by the one path
// rule (obs.Admin): the loop Status as the JSON of health, of /v1/metrics and
// of /v1/ingest, Prometheus text on /metrics, and retained ingest-step traces
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
