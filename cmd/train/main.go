// Command train builds the paper's MVMM query-recommendation model from a
// raw search log and persists it, as the one model file format (QRECV006),
// for cmd/recommend and cmd/serve.
//
// Usage:
//
//	train -log search.log -model model.bin [-threshold 5] [-epsilons 0,0.05,0.1]
//
// The model is published atomically (core.Publish): a server that mapped
// the old file keeps serving it until it reloads, and a crash leaves the old
// file or the new one, never a torn one.
//
// The paper's baselines (adjacency, co-occurrence, N-gram) are trained and
// compared offline by cmd/experiments; none of them is written as a model
// file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is main behind one error: parse args, train from -log and publish the
// model at -model, reporting progress to stderr.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := core.DefaultConfig()
	var (
		logPath   = fs.String("log", "", "raw search log (required)")
		modelPath = fs.String("model", "model.bin", "output model file")
		epsilons  = fs.String("epsilons", "", "comma-separated VMM growth thresholds (default: the paper's 0.0..0.1)")
	)
	fs.IntVar(&cfg.ReductionThreshold, "threshold", cfg.ReductionThreshold, "drop session patterns seen at most this many times (paper: 5; -1 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return errors.New("-log is required")
	}

	if *epsilons != "" {
		var eps []float64
		for _, part := range strings.Split(*epsilons, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad epsilon %q: %v", part, err)
			}
			eps = append(eps, v)
		}
		cfg.Epsilons = eps
	}

	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()

	start := time.Now()
	rec, err := core.TrainFromLog(f, cfg)
	if err != nil {
		return err
	}
	st := rec.Stats()
	fmt.Fprintf(stderr, "train: %d sessions, %d searches, %d unique queries, mean length %.2f (%.1fs)\n",
		st.Sessions, st.Searches, st.UniqueQueries, st.MeanLength(), time.Since(start).Seconds())

	if err := core.Publish(*modelPath, rec); err != nil {
		return err
	}
	if info, err := os.Stat(*modelPath); err == nil {
		fmt.Fprintf(stderr, "train: model published to %s (%d bytes)\n", *modelPath, info.Size())
	}
	return nil
}
