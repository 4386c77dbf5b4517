# Development and CI entry points. CI (.github/workflows/ci.yml) runs these
# exact targets so local runs and the gate can never diverge.

GO ?= go

.PHONY: all build test race race-repeat fuzz-smoke fuzz-grammar examples bench bench-e2e bench-pairs chaos ingest-test obs-test fmt fmt-check vet check-docs check-api check-lines check-sleeps check-flags ci serve loadgen clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Flake hunt: the named packages' tests N times under the race detector. A
# race between a request and whatever outlives it (the response header write
# after the handler returned, a hedge loser) shows in a fraction of runs, so
# one pass of `race` can miss it; ci repeats the two packages that serve
# requests, the cache whose shards (entries and admission ghost) every
# request touches, the tracer whose retention ring every request's finish
# may copy into under its mutex while /v1/traces reads it, and cmd/serve,
# whose lifecycle tests stop a process mid-request with its ingestion loop
# and ramp running.
PKG ?= ./internal/serve ./internal/fleet ./internal/cache ./internal/obs ./cmd/serve
N ?= 10
race-repeat:
	$(GO) test -race -count=$(N) $(PKG)

# Fuzz smoke: every Fuzz* target in the module, one after the other (go test
# takes one -fuzz target and one package at a time), FUZZTIME each. A local
# target, not part of ci (which runs fuzz-grammar, below): `test` already runs
# every target over its seed corpus, this looks for inputs nobody wrote down.
# The minimizer gets a second per new input, not its default minute: on
# FuzzLoad's 8 KB model files it would otherwise spend the whole smoke
# shrinking the first one.
#   make fuzz-smoke FUZZTIME=10s
FUZZTIME ?= 10s
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s $$pkg || exit 1; \
		done; \
	done

# The untrusted-input fuzz targets, 5 s each, in ci: the two request walkers
# against their oracles (internal/jsonspan), arbitrary bodies through a router
# and a single handler side by side (internal/fleet), and arbitrary bytes
# through the CPS5 model decoder, which runs at load on mapped bytes whose CRC
# a zero-copy load does not check (internal/compiled), the search-log codec
# the ingestion loop tails against the string-building one it replaced
# (internal/logfmt), the Prometheus exposition parser on arbitrary bytes
# and on a registry's own output (internal/obs), the score formatter on
# arbitrary float64 bits against encoding/json (internal/core), and the query
# normaliser every request context passes through against the four-scan one
# it fronts (internal/query). fuzz-smoke's loop over a
# fixed list: six parser bugs in five PRs were each found by a differential
# test somebody had to think of first.
fuzz-grammar:
	@for t in ./internal/jsonspan:FuzzBatchWalker ./internal/jsonspan:FuzzQueryWalker ./internal/fleet:FuzzRoutedBatchNeverBlamesShard ./internal/compiled:FuzzFlat5Decode ./internal/logfmt:FuzzCodecDifferential ./internal/obs:FuzzParsePrometheus ./internal/core:FuzzAppendJSONFloat ./internal/query:FuzzNormalize; do \
		echo "== $$t"; \
		$(GO) test -run=NONE -fuzz="^$${t#*:}\$$" -fuzztime=5s -fuzzminimizetime=1s $${t%:*} || exit 1; \
	done

# chaos, ingest-test and obs-test are local shortcuts: each re-runs, by -run
# filter, a slice of what `race` already runs, for working on that subsystem.
# ci does not depend on them.
#
# Fault-injection harness: the replicated ring's chaos scenarios (shard
# killed mid-batch, reload storm during fan-out, flapping shard, hedged
# GETs) and /v1/fleet over a restarted or unreachable shard, under the race
# detector — the availability claims, enforced.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestFleetState|TestRingLookupN|TestPolicy' ./internal/fleet

# Closed-loop ingestion harness: the end-to-end stream → retrain → shadow →
# auto-ramp → promote loop, the exhaustive crash-replay cut-point table and
# the write-log recovery tests, under the race detector — the durability and
# freshness claims, enforced.
ingest-test:
	$(GO) test -race -count=1 -run 'TestLoop|TestCrashReplay|TestIngest|TestWAL' ./internal/stream ./internal/serve

# Observability harness: the histogram/trace/exposition unit tests plus the
# endpoint tests that hammer /v1/metrics and /v1/traces under concurrent
# traffic, reload storms and chaos faults — all under the race detector.
obs-test:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -count=1 -run 'TestObs|TestPrometheus|TestTraces|TestRequestID|TestChaosTrace' ./internal/serve ./internal/fleet

# Benchmark smoke: one iteration of every benchmark, no test re-runs. Run
# twice — single-core and 4-core — so the parallel batch descent's worker
# fan-out and its sequential fallback both execute.
bench:
	GOMAXPROCS=1 $(GO) test -run=NONE -bench=. -benchtime=1x ./...
	GOMAXPROCS=4 $(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repository's end-to-end benchmark (BENCHMARK.json, bench/README.md): one
# run of one workload — get_zipf, get_miss, batch_miss, ring_get or ring_batch —
# on one seed. Compare commits with alternating parent/change pairs of this,
# never with single runs.
WORKLOAD ?= ring_get
SEED ?= 1
bench-e2e:
	bash bench/run.sh $(WORKLOAD) $(SEED)

# The comparison every performance entry in CHANGES.md needs: N alternating
# parent/change pairs of the benchmark on one workload (seeds FIRST..FIRST+N-1,
# odd seeds parent first), the parent exported under .bench_build/, and a table
# of per-metric medians, quartiles, the change of the median and pairs won.
# ~45 s a pair.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=ring_batch N=10
PARENT ?= HEAD
FIRST ?= 1
bench-pairs:
	$(GO) run ./cmd/benchpairs -parent $(PARENT) -workload $(WORKLOAD) -n $(N) -first $(FIRST)

fmt:
	gofmt -w .

# A parent checkout exported under .bench_build/ by bench-pairs is not this
# tree's to format.
fmt-check:
	@out="$$(gofmt -l . | grep -v '^\.bench_build/' || true)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation gate: every exported symbol in the serving-critical packages
# and in the model and evaluation ones (eval, markov, query, session) must
# carry a doc comment, ARCHITECTURE.md and README.md must not name
# anything this repository retired (cmd/doccheck/retired.txt), README's
# flag tables must not document a flag their command does not define, no
# Go comment may cite a *.md file that does not exist, and EXPERIMENTS.md
# must have a row for every heading of the recorded -quick harness output.
check-docs:
	$(GO) run ./cmd/doccheck ./internal/compiled ./internal/core ./internal/eval ./internal/fleet ./internal/jsonspan ./internal/markov ./internal/obs ./internal/query ./internal/serve ./internal/session ./internal/stream

# API-surface gate: vet plus the apilint rule that recommendation entry
# points stay on core.Recommender (no new exported Recommend* outside
# internal/core and internal/cache).
check-api: vet
	$(GO) run ./cmd/apilint .

# Line-count ratchet: the non-test Go lines outside bench/ and dot-directories
# may not grow past LINES_CEILING. A PR that shrinks the code lowers the
# ceiling to its new count; a PR that raises it says why in CHANGES.md.
LINES_CEILING = 19691
check-lines:
	@n=$$(find . -path ./bench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l); \
	echo "non-test Go lines: $$n (ceiling $(LINES_CEILING))"; \
	if [ $$n -gt $(LINES_CEILING) ]; then \
		echo "over the ceiling: delete something, or raise LINES_CEILING and say why in CHANGES.md"; exit 1; fi

# Sleep ratchet: the time.Sleep calls in _test.go files outside bench/ and
# dot-directories may not grow past SLEEPS_CEILING. A test that waits out a
# shard router timer steps the router's virtual clock instead
# (internal/fleet/export_test.go); a PR that removes sleeps lowers the ceiling.
SLEEPS_CEILING = 13
check-sleeps:
	@n=$$(find . -path ./bench -prune -o -path './.*' -prune -o -name '*_test.go' -print | xargs cat | grep -o 'time\.Sleep' | wc -l); \
	echo "time.Sleep in tests: $$n (ceiling $(SLEEPS_CEILING))"; \
	if [ $$n -gt $(SLEEPS_CEILING) ]; then \
		echo "over the ceiling: step a virtual clock or wait on an event instead of sleeping"; exit 1; fi

# Flag ratchet: the flag bindings (fs.*Var) in cmd/serve/main.go may not grow
# past FLAGS_CEILING. A flag names the deployment or measurement that needs a
# second value (ARCHITECTURE.md §10); a PR that
# removes flags lowers the ceiling, one that adds a flag raises it and says
# why in CHANGES.md.
FLAGS_CEILING = 27
check-flags:
	@n=$$(grep -o 'fs\.[A-Za-z0-9]*Var(' cmd/serve/main.go | wc -l); \
	echo "cmd/serve flags: $$n (ceiling $(FLAGS_CEILING))"; \
	if [ $$n -gt $(FLAGS_CEILING) ]; then \
		echo "over the ceiling: a new flag needs a deployment that sets it; raise FLAGS_CEILING and say why in CHANGES.md"; exit 1; fi

# Every examples/ program, run to completion: go build only proves they
# compile. Each trains on a small synthetic corpus in-process (under a
# second apiece on a 2-core x86-64 VM); a non-zero exit fails the target.
examples:
	@for ex in $(wildcard examples/*); do \
		echo "== $$ex"; \
		$(GO) run ./$$ex || exit 1; \
	done

# test runs beside race because the allocation-count tests (the routed GET's
# among them) and the instruments' clock-read test skip themselves under the
# race detector.
ci: check-api fmt-check check-docs check-lines check-sleeps check-flags build test race race-repeat fuzz-grammar examples bench

# Convenience: train a small model if absent, then serve it.
model.bin:
	$(GO) run ./cmd/loggen -sessions 20000 -out /tmp/repro-train.log
	$(GO) run ./cmd/train -log /tmp/repro-train.log -model model.bin -threshold 2

serve: model.bin
	$(GO) run ./cmd/serve -model model.bin

loadgen:
	$(GO) run ./cmd/loadgen -addr http://localhost:8080

clean:
	rm -f model.bin
	rm -rf .bench_build
