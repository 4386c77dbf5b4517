// Command experiments regenerates every table and figure of the paper's
// evaluation section (Sec. V) on the synthetic log substrate and prints them
// as text tables/charts. internal/experiments/testdata/quick.golden is the
// recorded -quick output, which TestQuickGolden holds byte for byte.
//
// Usage:
//
//	experiments [-train 120000] [-test 30000] [-threshold 2] [-study 500] [-quick]
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		train     = flag.Int("train", 120000, "training sessions to generate")
		test      = flag.Int("test", 30000, "test sessions to generate")
		threshold = flag.Uint64("threshold", 2, "data-reduction frequency threshold")
		quick     = flag.Bool("quick", false, "skip the slow Fig. 12 timing sweep, the ablations and the drift table")
		studyPer  = flag.Int("study", 500, "user-study contexts per context length")
	)
	flag.Parse()

	opt := experiments.DefaultRunOptions()
	opt.Corpus.TrainSessions = *train
	opt.Corpus.TestSessions = *test
	opt.Corpus.ReductionThreshold = *threshold
	opt.Quick = *quick
	opt.StudyPerLen = *studyPer

	if _, _, err := experiments.RunAll(os.Stdout, opt); err != nil {
		log.Fatal(err)
	}
}
