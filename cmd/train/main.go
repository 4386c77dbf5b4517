// Command train builds the paper's MVMM query-recommendation model from a
// raw search log and persists it, as the one model file format (QRECV006),
// for cmd/recommend and cmd/serve.
//
// Usage:
//
//	train -log search.log -model model.bin [-threshold 5] [-epsilons 0,0.05,0.1]
//
// The paper's baselines (adjacency, co-occurrence, N-gram, and the HMM and
// clustering extensions) are trained and compared offline by
// cmd/experiments; none of them is written as a model file.
package main

import (
	"flag"
	"fmt"
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
	var (
		logPath   = flag.String("log", "", "raw search log (required)")
		modelPath = flag.String("model", "model.bin", "output model file")
		threshold = flag.Int("threshold", 5, "data-reduction frequency threshold (paper: 5; -1 disables)")
		epsilons  = flag.String("epsilons", "", "comma-separated VMM growth thresholds (default: the paper's 0.0..0.1)")
	)
	flag.Parse()
	if *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.ReductionThreshold = *threshold
	if *epsilons != "" {
		var eps []float64
		for _, part := range strings.Split(*epsilons, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				log.Fatalf("bad epsilon %q: %v", part, err)
			}
			eps = append(eps, v)
		}
		cfg.Epsilons = eps
	}

	f, err := os.Open(*logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	rec, err := core.TrainFromLog(f, cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := rec.Stats()
	fmt.Fprintf(os.Stderr, "train: %d sessions, %d searches, %d unique queries, mean length %.2f (%.1fs)\n",
		st.Sessions, st.Searches, st.UniqueQueries, st.MeanLength(), time.Since(start).Seconds())

	out, err := os.Create(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := rec.Save(out); err != nil {
		log.Fatal(err)
	}
	info, _ := out.Stat()
	if info != nil {
		fmt.Fprintf(os.Stderr, "train: model saved to %s (%d bytes)\n", *modelPath, info.Size())
	}
}
