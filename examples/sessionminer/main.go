// Sessionminer: use the session pipeline on its own — segment a raw log,
// aggregate, inspect the pattern structure and power law, and print the most
// common reformulation sessions. This is the paper's Sec. V.A data analysis
// as a standalone log-mining tool.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/logfmt"
	"repro/internal/loggen"
	"repro/internal/markov"
	"repro/internal/query"
	"repro/internal/session"
)

func main() {
	log.SetFlags(0)

	// Stand-in for a real log file.
	genCfg := loggen.DefaultConfig()
	genCfg.Universe.Topics = 100
	gen, err := loggen.New(genCfg)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	w := logfmt.NewWriter(&buf)
	if _, err := gen.GenerateRecords(50000, w.Write); err != nil {
		log.Fatal(err)
	}
	w.Flush()

	// Segment with the 30-minute rule.
	dict := query.NewDict()
	sessions, err := session.SegmentReader(logfmt.NewReader(&buf), dict, 0)
	if err != nil {
		log.Fatal(err)
	}
	agg := session.Aggregate(sessions)
	st := session.Collect(agg)
	fmt.Printf("segmented %d sessions (%d searches, %d unique queries, mean length %.2f)\n",
		st.Sessions, st.Searches, st.UniqueQueries, st.MeanLength())

	lengths, counts := st.LengthBuckets()
	fmt.Println("\nsession-length histogram:")
	for i, l := range lengths {
		fmt.Printf("  length %d: %d\n", l, counts[i])
	}

	slope, r2 := session.PowerLawFit(session.RankFrequency(agg))
	fmt.Printf("\naggregated-session power law: slope %.2f, R² %.3f\n", slope, r2)

	reduced, mass := session.Reduce(agg, 2)
	fmt.Printf("after reduction (threshold 2): %d/%d aggregated sessions, %.1f%% of mass retained\n",
		len(reduced), len(agg), 100*mass)

	fmt.Println("\nmost frequent multi-query sessions:")
	shown := 0
	for _, s := range reduced {
		if len(s.Queries) < 2 {
			continue
		}
		fmt.Printf("  %6d×  %s\n", s.Count, s.Queries.Format(dict))
		shown++
		if shown >= 10 {
			break
		}
	}

	// Distinct (prefix, next query) training contexts (Sec. V.A.5).
	ctxs := 0
	for _, d := range markov.NewNGram(reduced, 0).States(0) {
		ctxs += d.Support()
	}
	fmt.Printf("\nderived %d distinct training contexts\n", ctxs)
}
