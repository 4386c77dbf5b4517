// Livesuggest: simulate the online recommendation phase — a stream of user
// sessions arrives and the recommender suggests after every keystroke-free
// query submission, tracking hit-rate@5 against what the user actually did
// next. This is the deployment loop of Sec. IV.B.2 measured end to end,
// including per-query prediction latency.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)

	cfg := experiments.SmallCorpusConfig()
	corpus, err := experiments.BuildCorpus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := core.TrainFromAggregated(corpus.Dict, corpus.TrainAgg, core.Config{
		Epsilons: []float64{0.0, 0.02, 0.05, 0.1},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Replay unseen test sessions as live user streams.
	var (
		predictions int
		hits        int
		covered     int
		latency     time.Duration
	)
	replayed := 0
	for _, s := range corpus.TestAgg {
		if len(s.Queries) < 2 {
			continue
		}
		replayed++
		if replayed > 3000 {
			break
		}
		for i := 1; i < len(s.Queries); i++ {
			ctx := make([]string, i)
			for j := 0; j < i; j++ {
				ctx[j] = corpus.Dict.String(s.Queries[j])
			}
			start := time.Now()
			suggestions := core.Recommend(rec, ctx, 5)
			latency += time.Since(start)
			predictions++
			if len(suggestions) == 0 {
				continue
			}
			covered++
			actual := corpus.Dict.String(s.Queries[i])
			for _, sg := range suggestions {
				if sg.Query == actual {
					hits++
					break
				}
			}
		}
	}

	fmt.Printf("replayed sessions:        %d\n", replayed)
	fmt.Printf("prediction opportunities: %d\n", predictions)
	fmt.Printf("covered:                  %d (%.1f%%)\n", covered, 100*float64(covered)/float64(predictions))
	fmt.Printf("hit@5 (of covered):       %d (%.1f%%)\n", hits, 100*float64(hits)/float64(covered))
	fmt.Printf("mean prediction latency:  %v\n", latency/time.Duration(predictions))
	fmt.Println("\nThe paper's O(D) online claim: latency should be microseconds,")
	fmt.Println("independent of training-set size.")
}
