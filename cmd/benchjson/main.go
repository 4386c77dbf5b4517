// Command benchjson checks regression gates against `go test -bench` output
// on stdin. It records nothing and writes no file: how fast the serving path
// is, and how that moves from commit to commit, is the end-to-end benchmark's
// to say (BENCHMARK.json, bench/README.md, `make bench-pairs`); what is
// checked here are the counts a micro-benchmark reports exactly —
// allocations per operation and ratios such as allocation or clock-read
// multiples.
//
// `-gate BenchmarkServeHTTPCached=2` fails the run when that benchmark's
// allocs/op exceeds the ceiling, and
// `-gate BenchmarkShardFanout64R2:fanout-r2-over-r1=1.5` gates a
// b.ReportMetric value instead (the part after the colon names the metric
// unit). A gated benchmark that is missing from the input fails too.
//
// Usage (what `make bench-gates` runs):
//
//	go test -run=NONE -bench='...' -benchmem . | benchjson \
//	    -gate BenchmarkServeHTTPCached=2 -gate BenchmarkShardFanout64R2:fanout-r2-over-r1=1.5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

// result is what one benchmark line reported: the allocs/op column when
// -benchmem printed it, and every other (value, unit) pair under its unit.
type result struct {
	allocsPerOp *float64
	metrics     map[string]float64
}

type gateList []string

func (g *gateList) String() string     { return strings.Join(*g, ",") }
func (g *gateList) Set(v string) error { *g = append(*g, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var gates gateList
	flag.Var(&gates, "gate", "Benchmark=maxAllocs or Benchmark:metric=max ceiling, repeatable; exits 1 when exceeded")
	flag.Parse()

	results := make(map[string]result)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue // goos/cpu headers, PASS/FAIL/ok lines and test noise
		}
		name, res, err := parseBenchLine(line)
		if err != nil {
			log.Printf("skipping %q: %v", line, err)
			continue
		}
		results[name] = res
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}
	if err := applyGates(results, gates); err != nil {
		log.Fatal(err)
	}
}

// applyGates enforces `Benchmark=maxAllocs` and `Benchmark:metric=max`
// ceilings against the parsed run.
func applyGates(results map[string]result, gates []string) error {
	for _, g := range gates {
		name, limitStr, ok := strings.Cut(g, "=")
		if !ok {
			return fmt.Errorf("malformed -gate %q (want Benchmark=maxAllocs or Benchmark:metric=max)", g)
		}
		limit, err := strconv.ParseFloat(limitStr, 64)
		if err != nil {
			return fmt.Errorf("malformed -gate limit %q: %v", limitStr, err)
		}
		name, metric, isMetric := strings.Cut(name, ":")
		res, ok := results[name]
		if !ok {
			return fmt.Errorf("gate %s: benchmark missing from this run", name)
		}
		if isMetric {
			val, ok := res.metrics[metric]
			if !ok {
				return fmt.Errorf("gate %s: metric %q missing (benchmark must b.ReportMetric it)", name, metric)
			}
			if val > limit {
				return fmt.Errorf("gate %s: %s = %g exceeds the %g ceiling — benchmark-metric regression",
					name, metric, val, limit)
			}
			log.Printf("gate %s: %s = %g <= %g ok", name, metric, val, limit)
			continue
		}
		if res.allocsPerOp == nil {
			return fmt.Errorf("gate %s: no allocs/op column (run with -benchmem)", name)
		}
		if *res.allocsPerOp > limit {
			return fmt.Errorf("gate %s: %.1f allocs/op exceeds the %.1f ceiling — serving-path allocation regression",
				name, *res.allocsPerOp, limit)
		}
		log.Printf("gate %s: %.1f allocs/op <= %.1f ok", name, *res.allocsPerOp, limit)
	}
	return nil
}

// parseBenchLine decodes one result line of the standard bench format:
//
//	BenchmarkName-8   12345   678.9 ns/op   10 B/op   2 allocs/op   1.0 extra-metric
func parseBenchLine(line string) (string, result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", result{}, fmt.Errorf("want >= 4 fields, got %d", len(fields))
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", result{}, fmt.Errorf("iterations: %v", err)
	}
	res := result{metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, fmt.Errorf("value %q: %v", fields[i], err)
		}
		if unit := fields[i+1]; unit == "allocs/op" {
			res.allocsPerOp = &val
		} else {
			res.metrics[unit] = val
		}
	}
	if _, ok := res.metrics["ns/op"]; !ok {
		return "", result{}, fmt.Errorf("no ns/op column")
	}
	return name, res, nil
}
