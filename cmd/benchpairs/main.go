// Command benchpairs compares this checkout against a parent revision on one
// workload of the repository's benchmark (BENCHMARK.json, bench/run.sh) the
// way a performance claim has to be argued: N alternating parent/change
// pairs, one seed per pair, and per metric each side's median and quartiles,
// the change of the median and in how many pairs the change was better.
// Single runs drift with the host's slow phases; pairs do not.
//
// The parent is exported with `git archive` into .bench_build/parent-<sha>/
// (git-ignored; removed again with `make clean`), where bench/run.sh builds
// and runs it exactly as it does here. The side that runs first alternates
// with the seed's parity, odd seeds parent first. Every run's values are
// printed as they arrive, so the table can be checked against them.
//
// Usage (make bench-pairs PARENT=HEAD~1 WORKLOAD=ring_batch N=10 FIRST=1):
//
//	go run ./cmd/benchpairs -parent HEAD~1 -workload ring_batch -n 10 -first 1
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// metricSpec is one end-to-end metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "higher" or "lower"
}

// runResult is the last line bench/run.sh prints.
type runResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	parent := flag.String("parent", "HEAD", "revision to compare this checkout against")
	workload := flag.String("workload", "ring_get", "benchmark workload to run")
	n := flag.Int("n", 10, "number of parent/change pairs")
	first := flag.Int("first", 1, "seed of the first pair; pair i runs on seed first+i")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchpairs: ")
	if *n < 1 {
		log.Fatal("-n must be at least 1")
	}

	specs, err := readSpecs("BENCHMARK.json")
	if err != nil {
		log.Fatal(err)
	}
	parentDir, sha, err := exportParent(*parent)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# %s: %d pairs, seeds %d-%d, parent %s (%s) in %s\n",
		*workload, *n, *first, *first+*n-1, *parent, sha, parentDir)

	sides := []struct{ name, dir string }{{"parent", parentDir}, {"change", "."}}
	values := make([][2][]float64, len(specs)) // per metric, per side, per pair
	for seed := *first; seed < *first+*n; seed++ {
		order := []int{0, 1}
		if seed%2 == 0 {
			order = []int{1, 0}
		}
		for _, side := range order {
			res, err := runOnce(sides[side].dir, *workload, seed)
			if err != nil {
				log.Fatalf("%s, seed %d: %v", sides[side].name, seed, err)
			}
			fmt.Printf("seed %-3d %s", seed, sides[side].name)
			for i, m := range specs {
				v := res.Metrics[m.Name].Value
				values[i][side] = append(values[i][side], v)
				fmt.Printf("  %s %.6g", m.Name, v)
			}
			fmt.Printf("  failed %d\n", res.Failed)
		}
	}

	fmt.Printf("\n| workload | metric | parent median [q1, q3] | change median [q1, q3] | Δ median | parent IQR | change better in |\n|---|---|---|---|---|---|---|\n")
	for k, m := range specs {
		p, c := values[k][0], values[k][1]
		pm, cm := median(p), median(c)
		pq1, pq3 := quartiles(p)
		cq1, cq3 := quartiles(c)
		wins, ties := 0, 0
		for i := range p {
			switch {
			case c[i] == p[i]:
				ties++
			case (c[i] > p[i]) == (m.Better == "higher"):
				wins++
			}
		}
		better := fmt.Sprintf("%d/%d", wins, len(p)-ties)
		if ties > 0 {
			better += fmt.Sprintf(" (%d ties)", ties)
		}
		fmt.Printf("| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.1f%% | %.1f%% | %s |\n",
			*workload, m.Name, pm, pq1, pq3, cm, cq1, cq3, pct(cm-pm, pm), pct(pq3-pq1, pm), better)
	}
}

func pct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * x / base
}

func readSpecs(path string) ([]metricSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var manifest struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(manifest.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	return manifest.EndToEnd, nil
}

// exportParent unpacks rev's committed tree under .bench_build/ (once per
// commit) and returns the directory and the short commit hash.
func exportParent(rev string) (dir, sha string, err error) {
	out, err := exec.Command("git", "rev-parse", "--short", rev+"^{commit}").Output()
	if err != nil {
		return "", "", fmt.Errorf("git rev-parse %s: %w", rev, err)
	}
	sha = strings.TrimSpace(string(out))
	dir = filepath.Join(".bench_build", "parent-"+sha)
	if _, err := os.Stat(filepath.Join(dir, "bench", "run.sh")); err == nil {
		return dir, sha, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	archive := exec.Command("git", "archive", sha)
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stderr = os.Stderr
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", "", err
	}
	if err := untar.Start(); err != nil {
		return "", "", err
	}
	if err := archive.Run(); err != nil {
		return "", "", fmt.Errorf("git archive %s: %w", sha, err)
	}
	if err := untar.Wait(); err != nil {
		return "", "", fmt.Errorf("unpacking %s: %w", sha, err)
	}
	return dir, sha, nil
}

// runOnce runs one benchmark run in dir and parses its result line.
func runOnce(dir, workload string, seed int) (runResult, error) {
	cmd := exec.Command("bash", "bench/run.sh", workload, fmt.Sprint(seed))
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("bench/run.sh: %w\n%s", err, stdout.Bytes())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, "{") {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line in the benchmark's output: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("run is not correct (failed %d)", res.Failed)
	}
	return res, nil
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method of
// Python's statistics.quantiles(v, n=4) — the one the benchmark's own
// spread tables (bench aa) and the merge gate use.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}
