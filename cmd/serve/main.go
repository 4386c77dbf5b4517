// Command serve exposes trained recommendation models over HTTP — the
// paper's real-time deployment scenario: a result cache, request metrics,
// hot model reload, graceful shutdown, multi-model A/B serving, shadow
// scoring and consistent-hash shard fan-out — and runs the streaming
// ingestion loop that retrains the served model as the query log grows.
//
//	serve -model model.bin [-addr :8080]                          one model: the arm "default"
//	serve -arms champion=a.bin:90,challenger=b.bin:10,next=c.bin:0  A/B + shadow fleet
//	serve -role router -shards 3 -model model.bin                  in-process loopback ring
//	serve -role router -shards http://shard-0:8080,http://shard-1:8080
//	serve -arms champ=a.bin,challenger=b.bin:0 -ingest-log queries.log -ramp 1,5,25
//	serve -role ingest -model a.bin -ingest-log queries.log -ingest-push http://localhost:8080 -addr :9090
//
// Roles: serve (default), shard (the same, behind a router), router, and
// ingest (the ingestion loop alone, pushing each snapshot at a fleet over
// HTTP). SIGHUP reloads every arm from its file, as POST
// /v1/reload?model=<name> reloads one; SIGINT/SIGTERM drain connections
// within -drain, then stop the ingestion loop and ramp and release what
// they held. README.md's CLI reference documents every flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// config is the parsed command line.
type config struct {
	role, modelPath, arms, shards, addr string
	replicas, topN, cacheCap            int
	shardTimeout, hedgeAfter, drain     time.Duration
	quiet, pprof                        bool
	ingest                              ingestOpts

	// Set by validate.
	armSpecs  []armSpec // -arms, or the one arm "default" serving -model
	rampSteps []uint32  // -ramp
}

// ingestOpts carries the -ingest-* and -ramp-* flags.
type ingestOpts struct {
	logPath, walPath, modelOut, arm, push string
	poll, rampHold, rampEvery             time.Duration
	recompile, rampMinSamples             uint64
	threshold                             int
	once, rampPromote                     bool
	ramp                                  string
}

// parseFlags binds the command line onto a config and validates it.
func parseFlags(args []string) (*config, error) {
	var c config
	fs := bindFlags(&c)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return &c, c.validate()
}

// bindFlags defines every flag of the command on a new flag set, bound to c.
func bindFlags(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&c.role, "role", "serve", "process role: serve, shard (replica behind a router), router (consistent-hash fan-out) or ingest (the ingestion loop alone)")
	fs.StringVar(&c.modelPath, "model", "model.bin", "model file from cmd/train (served as the one arm \"default\" without -arms, the shared model of a loopback ring, or the vocabulary -role ingest extends; '' = a fresh one)")
	fs.StringVar(&c.arms, "arms", "", "fleet arms 'name=path[:weight],...': first arm is the champion, weight 0 = shadow-scored only (default weight 1)")
	fs.StringVar(&c.shards, "shards", "", "router backends: an integer N for an in-process loopback ring over -model, or comma-separated shard base URLs")
	fs.IntVar(&c.replicas, "replicas", 1, "router replication factor R: each key range maps to R distinct shards and fails over along the list (1 = off)")
	fs.DurationVar(&c.shardTimeout, "shard-timeout", 2*time.Second, "router per-attempt deadline before failing over to the next replica (0 = transport default only)")
	fs.DurationVar(&c.hedgeAfter, "hedge-after", 0, "router hedged GETs: fire the next replica after this delay and take the first success (0 = off, negative = auto from live p99)")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address (-role ingest: of its admin surface, '' = none)")
	fs.IntVar(&c.topN, "n", 5, "default suggestion count")
	fs.IntVar(&c.cacheCap, "cache", 0, "result cache capacity (0 = default; loopback rings split it across shards)")
	fs.BoolVar(&c.quiet, "quiet", false, "disable per-request logging")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful shutdown timeout")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving address (keep off on exposed listeners)")
	in := &c.ingest
	fs.StringVar(&in.logPath, "ingest-log", "", "run the streaming ingestion loop: tail this query log, retrain and push into the -ingest-arm slot (embedded: an arm declared in -arms)")
	fs.StringVar(&in.walPath, "ingest-wal", "ingest.wal", "ingestion write-log path (crash-replayed on restart)")
	fs.StringVar(&in.modelOut, "ingest-model", "challenger.bin", "recompiled snapshot output path")
	fs.StringVar(&in.arm, "ingest-arm", "challenger", "fleet arm a recompile reloads (-role ingest: POST /v1/reload?model=<arm>)")
	fs.Uint64Var(&in.recompile, "ingest-recompile", stream.DefaultRecompileSessions, "completed sessions between background recompiles (0 = the default)")
	fs.IntVar(&in.threshold, "ingest-threshold", core.DefaultConfig().ReductionThreshold, "drop session patterns seen at most this many times at recompile (-1 = keep all)")
	fs.DurationVar(&in.poll, "ingest-poll", 200*time.Millisecond, "tail poll interval when caught up")
	fs.StringVar(&in.push, "ingest-push", "", "-role ingest: serving fleet base URL each recompile is pushed at (empty = recompile only)")
	fs.BoolVar(&in.once, "ingest-once", false, "-role ingest: drain the log and exit (batch catch-up)")
	fs.StringVar(&in.ramp, "ramp", "", "auto-ramp weight schedule for -ingest-arm, comma-separated ascending weights e.g. '1,5,25' (empty = pushes stay shadow-only)")
	fs.DurationVar(&in.rampHold, "ramp-hold", 10*time.Minute, "minimum time at each ramp step before advancing")
	fs.DurationVar(&in.rampEvery, "ramp-every", 15*time.Second, "ramp scheduler tick interval")
	fs.Uint64Var(&in.rampMinSamples, "ramp-min-samples", 500, "shadow samples required before the challenger takes its first step")
	fs.BoolVar(&in.rampPromote, "ramp-promote", false, "after the final ramp step's hold, swap the challenger into the champion slot and advance the interning base")
	return fs
}

// validate refuses a flag combination no role can run, naming the flag, and
// parses -arms and -ramp.
func (c *config) validate() error {
	in := c.ingest
	switch c.role {
	case "serve", "shard", "router":
	case "ingest":
		if in.logPath == "" {
			return errors.New("-role ingest needs -ingest-log")
		}
		if in.ramp != "" {
			return errors.New("-ramp needs the fleet it ramps (-role serve), not -role ingest")
		}
		return nil
	default:
		return fmt.Errorf("unknown -role %q (want serve, shard, router or ingest)", c.role)
	}
	switch {
	case in.push != "":
		return errors.New("-ingest-push belongs to -role ingest")
	case in.once:
		return errors.New("-ingest-once belongs to -role ingest")
	case c.role == "router" && in.logPath != "":
		return errors.New("-ingest-log needs a serving fleet, which -role router does not hold")
	case c.role == "router" && in.ramp != "":
		return errors.New("-ramp needs a serving fleet, which -role router does not hold")
	}
	if c.addr == "" {
		return fmt.Errorf("-addr '' (no listener) suits -role ingest only, not %s", c.role)
	}
	if c.role == "router" {
		if c.shards == "" {
			return errors.New("-role router needs -shards (an integer for a loopback ring, or comma-separated shard URLs)")
		}
		if n, err := strconv.Atoi(c.shards); err == nil && n < 1 {
			return fmt.Errorf("-shards %d: need at least one shard", n)
		}
		return nil
	}
	if in.ramp != "" {
		if in.logPath == "" {
			return errors.New("-ramp needs -ingest-log: it ramps the arm the ingestion loop pushes into")
		}
		for _, s := range strings.Split(in.ramp, ",") {
			w, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
			if err != nil {
				return fmt.Errorf("malformed -ramp step %q: %v", s, err)
			}
			c.rampSteps = append(c.rampSteps, uint32(w))
		}
	}
	c.armSpecs = []armSpec{{name: "default", path: c.modelPath, weight: 1}}
	if c.arms != "" {
		var err error
		if c.armSpecs, err = parseArms(c.arms); err != nil {
			return err
		}
	}
	if in.logPath != "" && !slices.ContainsFunc(c.armSpecs, func(a armSpec) bool { return a.name == in.arm }) {
		return fmt.Errorf("-ingest-arm %q is not declared in -arms (declare it there, weight 0)", in.arm)
	}
	return nil
}

// armSpec is one parsed -arms entry.
type armSpec struct {
	name   string
	path   string
	weight uint32
}

// parseArms decodes -arms: comma-separated name=path[:weight] entries,
// weight defaulting to 1 and 0 marking shadow arms.
func parseArms(s string) ([]armSpec, error) {
	var specs []armSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("malformed -arms entry %q (want name=path[:weight])", entry)
		}
		spec := armSpec{name: name, path: rest, weight: 1}
		if path, w, ok := strings.Cut(rest, ":"); ok {
			weight, err := strconv.ParseUint(w, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("malformed weight in -arms entry %q: %v", entry, err)
			}
			spec.path = path
			spec.weight = uint32(weight)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-arms given but no arms parsed from %q", s)
	}
	return specs, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	if err := start(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// start is main behind one error: parse the flags, listen on -addr, and run
// until SIGINT or SIGTERM, handing SIGHUP to the role.
func start(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	var ln net.Listener
	if cfg.addr != "" {
		if ln, err = net.Listen("tcp", cfg.addr); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	if err := run(ctx, cfg, ln, hup); err != nil {
		return err
	}
	log.Print("bye")
	return nil
}
