package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// aaMain is `bench aa`: the A/A noise check. It runs every workload n times
// on the code as it stands, alternating the workload order between rounds,
// and compares the median of the first half of the rounds with the median of
// the second half — the comparison a later PR's before/after makes, with no
// change in between. A gap above half a metric's bound fails the check: the
// bound would then not tell a regression from noise.
func aaMain(args []string) error {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	n := fs.Int("n", 6, "rounds; each runs every workload once")
	vary := fs.Bool("vary", false, "give every round its own seed (seed, seed+1, ...) as the driver's spread check does, instead of repeating one seed")
	seed := fs.Int64("seed", 1, "seed of the first round")
	seconds := fs.Int("seconds", defaultSeconds, "passed to every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("-n %d: need at least two rounds to compare halves", *n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric] holds one reading per round, in round order.
	values := map[string]map[string][]float64{}
	for round := 0; round < *n; round++ {
		s := *seed
		if *vary {
			s += int64(round)
		}
		for k := range workloads {
			w := workloads[k]
			if round%2 == 1 {
				w = workloads[len(workloads)-1-k]
			}
			res, err := runChild(self, w.name, s, *seconds)
			if err != nil {
				return fmt.Errorf("round %d %s: %w", round, w.name, err)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "round %d %-10s seed %d", round, w.name, s)
			for _, spec := range endToEnd {
				fmt.Fprintf(os.Stderr, "  %s %.6g", spec.name, res.Metrics[spec.name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	fmt.Printf("| workload | metric | median A | median B | gap %% | IQR %% | bound %% | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range workloads {
		for _, spec := range endToEnd {
			v := values[w.name][spec.name]
			a, b := median(v[:len(v)/2]), median(v[len(v)/2:])
			gap := math.Abs(b-a) / a
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / median(v)
			verdict := "ok"
			if gap > spec.bound/2 {
				verdict = "GAP ABOVE HALF BOUND"
				bad++
			} else if spec.name != "setup_s" && spread > spec.bound/3 {
				verdict = "ok (IQR above a third of bound)"
			}
			fmt.Printf("| %s | %s | %s | %s | %.2f | %.2f | %.1f | %s |\n", w.name, spec.name,
				strconv.FormatFloat(a, 'g', 6, 64), strconv.FormatFloat(b, 'g', 6, 64),
				100*gap, 100*spread, 100*spec.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs drifted by more than half their bound on unchanged code", bad)
	}
	return nil
}

// runChild runs one end-to-end `bench run` in a process of its own and
// decodes the result line it ends with.
func runChild(self, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "run", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("decoding result line: %w", err)
	}
	return res, nil
}
