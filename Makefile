# Development and CI entry points. CI (.github/workflows/ci.yml) runs these
# exact targets so local runs and the gate can never diverge.

GO ?= go

# The benchmarks `make bench-gates` runs: exactly the ones BENCH_GATES names.
SERVING_BENCH = ^(BenchmarkRecommendUncached|BenchmarkServeHTTPCached|BenchmarkRouteAB|BenchmarkServeHTTPCachedTraced|BenchmarkHistogramRecord|BenchmarkShardFanout64|BenchmarkRouterGET|BenchmarkShardFanout64R2|BenchmarkPredictCPS5|BenchmarkPredictHMM|BenchmarkRerankPairwise|BenchmarkCompiledBlobSize|BenchmarkIngestSegment)$$
# Override for quick smoke runs: make bench-gates BENCHTIME=10x
BENCHTIME ?= 1s
# Regression gates checked by cmd/benchjson: the cached HTTP serving path, the
# fleet A/B routing path and the per-family predict paths (the CPS5 descent a
# model file serves, HMM, pairwise rerank) must stay within their allocation
# budgets, the compact CPS5 blob must stay under 0.48 of the exact CPS3 blob
# on the benchmark model (0.394 when the gate was set; 0.48 = the 0.6 × 0.8
# the two-step CPS3 → quantised → compact gates allowed), and the 3-shard
# batch fan-out must hold the pooled span-forwarding path: 20 allocs/batch at steady state (the
# benchmark's own request 10, a body limiter per handler 4, the round's one
# attempt context 1, its two call goroutines 5), 24 while the tracers'
# retention rings fill, 26 on a cold first iteration. The 60 ceiling leaves
# room for that spread and for some 34 more allocations that come once per
# batch or per sub-batch (a derived context is 2-4, a goroutine 2-3), so it
# will not notice one of those coming back — TestRouterGETAllocs pins the
# round's single context exactly — and it leaves no room for a per-item
# allocation, which costs >= 64 (20 + 64 = 84). The replicated fan-out's
# allocation cost must stay within 1.5x the unreplicated path (it is 1.0x
# today: preference lists and attempt masks are pooled).
# The ingestion loop drains a fixed ~3000-record log per op (~4000 allocs
# today, ~1.3/record: segmenter growth + WAL frames + count-map inserts);
# the 6000 ceiling flags a per-record allocation regression, not JSON noise.
# The traced serving path and the histogram record primitive are gated at 0:
# the observability layer must stay free on the hot path. The routed GET is
# gated at the 2 allocations of its inline hop (the attempt context, which
# holds the deadline and the trace header as fields and arms no timer, and the
# forwarded URI; the shard path adds none): one more means a derived context,
# a goroutine, a channel or a closure crept back onto the unhedged path.
# TestRouterGETAllocs pins the same 2 in `make test`.
# The uncached recommend path is gated at 0: Engine.AppendSuggestions predicts
# into an array on its own stack, and one allocation there means that array
# escaped.
BENCH_GATES = -gate BenchmarkRecommendUncached=0 -gate BenchmarkServeHTTPCached=2 -gate BenchmarkRouteAB=0 -gate BenchmarkServeHTTPCachedTraced=0 -gate BenchmarkHistogramRecord=0 -gate BenchmarkShardFanout64=60 -gate BenchmarkRouterGET=2 -gate BenchmarkShardFanout64R2:fanout-r2-over-r1=1.5 -gate BenchmarkPredictCPS5=0 -gate BenchmarkPredictHMM=0 -gate BenchmarkRerankPairwise=0 -gate BenchmarkCompiledBlobSize:cps5-over-cps3=0.48 -gate BenchmarkIngestSegment=6000

.PHONY: all build test race race-repeat fuzz-smoke fuzz-grammar bench bench-gates bench-e2e bench-pairs chaos ingest-test obs-test fmt fmt-check vet check-docs check-api ci serve loadgen clean

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
# requests.
PKG ?= ./internal/serve ./internal/fleet
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

# The request grammar's fuzz targets, 5 s each, in ci: the two walkers against
# their oracles (internal/jsonspan) and arbitrary bodies through a router and a
# single handler side by side (internal/fleet). fuzz-smoke's loop over a fixed
# list: six parser bugs in five PRs were each found by a differential test
# somebody had to think of first.
fuzz-grammar:
	@for t in ./internal/jsonspan:FuzzBatchWalker ./internal/jsonspan:FuzzQueryWalker ./internal/fleet:FuzzRoutedBatchNeverBlamesShard; do \
		echo "== $$t"; \
		$(GO) test -run=NONE -fuzz="^$${t#*:}\$$" -fuzztime=5s -fuzzminimizetime=1s $${t%:*} || exit 1; \
	done

# chaos, ingest-test and obs-test are local shortcuts: each re-runs, by -run
# filter, a slice of what `race` already runs, for working on that subsystem.
# ci does not depend on them.
#
# Fault-injection harness: the replicated ring's chaos scenarios (shard
# killed mid-batch, reload storm during fan-out, flapping shard, hedged
# GETs) under the race detector — the availability claims, enforced.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestAntiEntropy|TestAdminState|TestRingLookupN' ./internal/fleet

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

# The allocation and blob-size regression gates: runs the gated benchmarks
# and checks BENCH_GATES against their output. Nothing is recorded — timings
# are the end-to-end benchmark's (bench-e2e, bench-pairs). The bench run lands
# in a temp file first so a mid-run benchmark failure fails the target
# instead of vanishing into a pipe.
bench-gates:
	$(GO) test -run=NONE -bench='$(SERVING_BENCH)' -benchmem -benchtime=$(BENCHTIME) . > bench-gates.tmp
	$(GO) run ./cmd/benchjson $(BENCH_GATES) < bench-gates.tmp
	@rm -f bench-gates.tmp

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
# must carry a doc comment, and ARCHITECTURE.md and README.md must not name a
# function this repository retired (see cmd/doccheck).
check-docs:
	$(GO) run ./cmd/doccheck ./internal/compiled ./internal/core ./internal/fleet ./internal/jsonspan ./internal/obs ./internal/stream

# API-surface gate: vet plus the apilint rule that recommendation entry
# points stay on core.Recommender (no new exported Recommend* outside
# internal/core and internal/cache).
check-api: vet
	$(GO) run ./cmd/apilint .

# test runs beside race because the allocation-count tests (the routed GET's
# among them) skip themselves under the race detector.
ci: check-api fmt-check check-docs build test race race-repeat fuzz-grammar bench

# Convenience: train a small model if absent, then serve it.
model.bin:
	$(GO) run ./cmd/loggen -sessions 20000 -out /tmp/repro-train.log
	$(GO) run ./cmd/train -log /tmp/repro-train.log -model model.bin -threshold 2

serve: model.bin
	$(GO) run ./cmd/serve -model model.bin

loadgen:
	$(GO) run ./cmd/loadgen -addr http://localhost:8080

clean:
	rm -f model.bin bench-gates.tmp
	rm -rf .bench_build
