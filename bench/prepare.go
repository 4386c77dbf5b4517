package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/logfmt"
	"repro/internal/loggen"
)

// prepareReport is what the prepare child prints for its parent: the cost of
// each step of turning a seed into a model file.
type prepareReport struct {
	GenSeconds   float64 `json:"gen_s"`
	TrainSeconds float64 `json:"train_s"`
	SaveMillis   float64 `json:"save_ms"`
	FileBytes    int64   `json:"model_file_bytes"`
}

// generatorFor returns the log generator every part of the benchmark draws
// from. Only the session stream depends on seed; the query universe is the
// generator's default, so a held-out stream (seed+1) shares the training
// stream's vocabulary.
func generatorFor(seed int64) (*loggen.Generator, error) {
	cfg := loggen.DefaultConfig()
	cfg.Seed = seed
	return loggen.New(cfg)
}

// prepare is the child-process half of set-up: generate the training log,
// train on it and save the model in the default container. It runs in a
// process of its own so the measuring process's RSS holds the served model
// and nothing of the trainer.
func prepare(seed int64, out string, sessions int) (prepareReport, error) {
	var rep prepareReport
	start := time.Now()
	gen, err := generatorFor(seed)
	if err != nil {
		return rep, err
	}
	var log bytes.Buffer
	w := logfmt.NewWriter(&log)
	if _, err := gen.GenerateRecords(sessions, w.Write); err != nil {
		return rep, fmt.Errorf("generating log: %w", err)
	}
	if err := w.Flush(); err != nil {
		return rep, fmt.Errorf("generating log: %w", err)
	}
	rep.GenSeconds = time.Since(start).Seconds()

	start = time.Now()
	cfg := core.DefaultConfig()
	cfg.ReductionThreshold = reductionThreshold
	eng, err := core.TrainFromLog(&log, cfg)
	if err != nil {
		return rep, err
	}
	rep.TrainSeconds = time.Since(start).Seconds()

	start = time.Now()
	f, err := os.Create(out)
	if err != nil {
		return rep, err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return rep, fmt.Errorf("saving model: %w", err)
	}
	if err := f.Close(); err != nil {
		return rep, err
	}
	rep.SaveMillis = float64(time.Since(start).Nanoseconds()) / 1e6
	st, err := os.Stat(out)
	if err != nil {
		return rep, err
	}
	rep.FileBytes = st.Size()
	return rep, nil
}

// prepareMain is the `bench prepare` subcommand: prepare, then one JSON line.
func prepareMain(seed int64, out string) error {
	// One core, like the measuring process: set-up time then does not depend
	// on whether the sandbox's second vCPU happens to be free.
	runtime.GOMAXPROCS(1)
	rep, err := prepare(seed, out, trainSessions)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// prepareInChild runs prepare in a child process. The returned duration is
// the child's wall time as the parent saw it, process start-up included.
func prepareInChild(seed int64, out string) (prepareReport, time.Duration, error) {
	var rep prepareReport
	self, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	cmd := exec.Command(self, "prepare", "-seed", strconv.FormatInt(seed, 10), "-out", out)
	cmd.Stderr = os.Stderr
	start := time.Now()
	stdout, err := cmd.Output()
	wall := time.Since(start)
	if err != nil {
		return rep, 0, fmt.Errorf("prepare child: %w", err)
	}
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return rep, 0, fmt.Errorf("prepare child output: %w", err)
	}
	return rep, wall, nil
}
