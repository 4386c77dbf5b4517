package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The real process. Everything gated is measured in-process; this file
// starts the actual cmd/serve binary on the same model file, replays a lap
// over one keep-alive TCP connection, and requires the bodies to equal the
// in-process handler's byte for byte (took_us aside). That is the proof the
// harness wires up what the binary wires up. The socket round-trip times
// are reported as context, never gated: most of them is kernel and net/http.

// serveProc is a running cmd/serve.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	ready  time.Duration
	client *http.Client
}

// startServe launches the binary for the workload's process shape — the
// flags the in-process handler was built to match — and waits until
// /healthz answers.
func startServe(bin, modelPath string, w *workload, cacheCap int) (*serveProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-model", modelPath, "-addr", addr, "-quiet", "-drain", "2s", "-n", strconv.Itoa(topN)}
	if w.router {
		args = append(args, "-role", "router", "-shards", strconv.Itoa(ringShards), "-replicas", strconv.Itoa(ringReplicas))
	} else {
		args = append(args, "-cache", strconv.Itoa(cacheCap))
	}
	p := &serveProc{
		cmd:  exec.Command(bin, args...),
		base: "http://" + addr,
		// One connection, kept alive: the closed-loop caller's socket.
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	for {
		resp, err := p.client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ready = time.Since(start)
				return p, nil
			}
		}
		if time.Since(start) > 10*time.Second {
			p.stop()
			return nil, fmt.Errorf("%s did not answer /healthz within 10s: %v", bin, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the process and waits for it to end.
func (p *serveProc) stop() {
	p.client.CloseIdleConnections()
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// replay sends c's lap to the process and compares every body with c's
// reference. It returns the median round-trip time and the mismatch count.
func (p *serveProc) replay(c *caller) (p50 time.Duration, mismatches int, err error) {
	rtts := make([]time.Duration, 0, len(c.p.reqs))
	var body bytes.Buffer
	for i, r := range c.p.reqs {
		var rd io.Reader
		if c.p.bodies != nil {
			rd = bytes.NewReader(c.p.bodies[i])
		}
		req, err := http.NewRequest(r.Method, p.base+r.URL.RequestURI(), rd)
		if err != nil {
			return 0, 0, err
		}
		if rd != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		start := time.Now()
		resp, err := p.client.Do(req)
		if err != nil {
			return 0, 0, err
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		rtts = append(rtts, time.Since(start))
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode != http.StatusOK || !matchMasked(c.ref[i], body.Bytes()) {
			mismatches++
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	return quantileCeil(rtts, 0.5), mismatches, nil
}

// procVisit is what one visit to the real process yields.
type procVisit struct {
	ready      time.Duration
	rssMiB     float64
	p50        []time.Duration // per replayed caller
	mismatches int
}

// visitProcess starts the real binary in e's workload's shape, replays each
// caller's lap against it, and stops it.
func visitProcess(e *env, callers ...*caller) (procVisit, error) {
	var v procVisit
	p, err := startServe(e.cfg.serve, e.modelPath, e.cfg.w, e.pool.cacheCapacity(e.cfg.w))
	if err != nil {
		return v, err
	}
	defer p.stop()
	v.ready = p.ready
	for _, c := range callers {
		p50, bad, err := p.replay(c)
		if err != nil {
			return v, err
		}
		v.p50 = append(v.p50, p50)
		v.mismatches += bad
		e.attempted += len(c.p.reqs)
		e.failed += bad
	}
	v.rssMiB, err = rssMiB(p.cmd.Process.Pid)
	return v, err
}

// procMetrics replays two laps against the real process: the workload's
// own, and the standard-input lap of the other request kind, so both socket
// round-trips are reported by every traced run. other is a warmed caller
// over that second lap.
func procMetrics(e *env, other *caller, m metrics) error {
	v, err := visitProcess(e, e.caller, other)
	if err != nil {
		return err
	}
	for i, c := range []*caller{e.caller, other} {
		name := "net.get_rtt_p50_us"
		if c.p.bodies != nil {
			name = "net.batch_rtt_p50_us"
		}
		m[name] = float64(v.p50[i].Nanoseconds()) / 1e3
	}
	m["net.mismatches"] = float64(v.mismatches)
	m["proc.ready_ms"] = float64(v.ready.Nanoseconds()) / 1e6
	m["proc.rss_mb"] = v.rssMiB
	return nil
}

// parityMain is `bench parity`: for every workload, set up as a run does,
// start the real binary in the matching shape and require zero mismatches.
func parityMain(args []string) error {
	fs := flag.NewFlagSet("parity", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of every generated input")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	total := 0
	table := "| workload | process | proc.ready_ms | proc.rss_mb | net rtt p50 us | requests | net.mismatches |\n" +
		"|---|---|---|---|---|---|---|\n"
	for i := range workloads {
		w := &workloads[i]
		e, err := setUp(runConfig{w: w, seed: *seed, workdir: defaultWorkdir, serve: serveBinary()})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		v, err := visitProcess(e, e.caller)
		e.discard()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		shape := "serve -cache " + strconv.Itoa(e.pool.cacheCapacity(w))
		if w.router {
			shape = fmt.Sprintf("serve -role router -shards %d -replicas %d", ringShards, ringReplicas)
		}
		table += fmt.Sprintf("| %s | %s | %.1f | %.1f | %.1f | %d | %d |\n", w.name, shape,
			float64(v.ready.Nanoseconds())/1e6, v.rssMiB, float64(v.p50[0].Nanoseconds())/1e3, len(e.pool.reqs), e.failed)
		total += e.failed
	}
	fmt.Print(table)
	if total > 0 {
		return fmt.Errorf("in-process handler and real process disagree: net.mismatches = %d", total)
	}
	return nil
}
