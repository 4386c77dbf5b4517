// Command bench is the repository's benchmark: it drives the handler chains
// cmd/serve builds, in-process, with one closed-loop caller on one core, and
// reports end-to-end and per-layer numbers that repeat on a shared sandbox.
// bench/README.md explains the protocol, the workloads and every metric.
//
//	bench run -workload get_zipf [-seed 1] [-seconds 10] [-trace 0|1|out.json]
//	bench <workload> [seed]        shorthand for the line above
//	bench parity [-seed 1]         real cmd/serve over TCP vs the in-process chain
//	bench aa [-n 6] [-vary]        A/A noise check over all workloads
//	bench manifest                 print BENCHMARK.json as spec.go defines it
//	bench prepare -seed 1 -out f   (internal) the set-up child
//
// Invoked with flags only (`--workload W --seed N --seconds T --trace 0|1`),
// it is `bench run`: that is how BENCHMARK.json's command calls it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	defaultWorkdir = ".bench_build"
	defaultSeconds = 10
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bench run|parity|aa ... (see bench/README.md)")
	}
	switch {
	case args[0] == "run":
		return runMain(args[1:])
	case strings.HasPrefix(args[0], "-"):
		return runMain(args)
	case workloadByName(args[0]) != nil:
		rewritten := []string{"-workload", args[0]}
		if len(args) > 1 {
			rewritten = append(rewritten, "-seed", args[1])
		}
		return runMain(append(rewritten, args[min(2, len(args)):]...))
	case args[0] == "prepare":
		fs := flag.NewFlagSet("prepare", flag.ContinueOnError)
		seed := fs.Int64("seed", 1, "generator seed")
		out := fs.String("out", "", "model file to write")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		return prepareMain(*seed, *out)
	case args[0] == "parity":
		return parityMain(args[1:])
	case args[0] == "aa":
		return aaMain(args[1:])
	case args[0] == "manifest":
		out, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	return fmt.Errorf("unknown subcommand or workload %q", args[0])
}

// serveBinary locates the real cmd/serve binary bench/run.sh builds next to
// this one.
func serveBinary() string {
	self, err := os.Executable()
	if err != nil {
		return "serve"
	}
	return filepath.Join(filepath.Dir(self), "serve")
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", defaultSeconds, "nominal measuring time; times 100 laps per second of it")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced per-layer run; a path: traced run writing its spans there")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, workdir: defaultWorkdir, serve: serveBinary()}
	switch *trace {
	case "0", "":
	case "1":
		cfg.trace = filepath.Join(defaultWorkdir, "trace-"+w.name+".json")
	default:
		cfg.trace = *trace
	}
	m, attempted, failed, err := run(cfg)
	if err != nil {
		return err
	}
	specs := endToEnd
	if cfg.trace != "" {
		specs = perLayer
	}
	if err := printResult(specs, m, attempted, failed); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d responses failed verification", failed, attempted)
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the last line of a run's standard output, in the shape the
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric of the set by name and unit, then ops and
// failed, then the one-line JSON result.
func printResult(specs []metricSpec, m metrics, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		fmt.Printf("%-36s %s %s\n", s.name, strconv.FormatFloat(v, 'g', -1, 64), s.unit)
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	fmt.Printf("%-36s %d\n%-36s %d\n", "ops", attempted, "failed", failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
