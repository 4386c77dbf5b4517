// Package repro is a from-scratch Go reproduction of "Web Query
// Recommendation via Sequential Query Prediction" (He, Jiang, Liao, Hoi,
// Chang, Lim, Li — ICDE 2009), grown into a production-shaped serving
// system. See ARCHITECTURE.md for the full paper-to-code map and the
// on-disk format evolution.
//
// # The paper
//
// The library implements the paper's complete system: the search-log
// substrate (synthetic generator + raw-record format), the session pipeline
// (30-minute segmentation, aggregation, reduction, context derivation), the
// three sequential prediction models (variable-length N-gram, VMM via
// Prediction Suffix Trees, and the MVMM mixture contribution), the two
// pair-wise baselines (Adjacency, Co-occurrence), the evaluation stack
// (NDCG, coverage, entropy, log-loss, simulated user study), and a
// benchmark harness regenerating every table and figure of the paper's
// evaluation section (internal/experiments, cmd/experiments).
//
// # Build phase versus serve phase
//
// Training produces the interpreted map-based MVMM (internal/markov) — the
// mutable build artifact that evaluation code walks and files persist.
// Before serving, internal/compiled flattens the whole mixture into a
// single merged Prediction Suffix Tree in CSR arrays (the paper's Table VII
// single-PST deployment note): per-node component bitmasks, escape-chain
// counts and precomputed smoothed probabilities. One trie descent per
// request, zero steady-state allocations, and predictions a seeded property
// test holds to the interpreted mixture's — identical IDs and order, scores
// within 1e-12. PredictBatch serves a batch as that descent in a loop over
// one pooled scratch: sharing descent prefixes between sorted contexts cost
// more than it saved on the traffic the cache lets through.
//
// # The model file
//
// A model file is one container: the dictionary and the compiled blob at a
// page-aligned offset, so core.LoadPath maps the file and slices the arrays
// out of the page cache — no decoding, lazy page-in, read-only sharing
// across processes. The blob has one encoding, CPS5: it quantises follower
// probabilities to fixed-point uint16 against per-node float32 steps,
// narrows every node array to its needed width and varint-packs the
// follower-ID lists and CSR offsets — under half the bytes of the exact
// arrays Compile holds in process, at a bounded (≤ ~2e-5 absolute)
// probability error. The exact model is never written; it is the oracle the
// parity tests compare CPS5 against, and Table VII reports both sizes.
// Platforms without mmap or little-endian layout decode the same blob
// portably.
//
// # Serving layer
//
// internal/serve exposes single and batch suggestion endpoints with
// metrics, panic recovery and hot model reload; internal/cache fronts the
// model with a sharded LRU keyed on interned context IDs; cmd/serve runs
// the server with SIGHUP/POST-reload and graceful shutdown, and the
// streaming ingestion loop (internal/stream) that retrains it as the log
// grows, embedded (-ingest-log) or alone (-role ingest); cmd/loadgen
// replays power-law synthetic traffic against it. The /suggest hot path is
// allocation-free end to end, and go test ./... holds it there: every
// allocation, clock-read and blob-size ceiling is a test beside the code it
// pins (internal/serve's TestServeHTTPCachedAllocs among them).
//
// Entry points: internal/core for the end-to-end recommender API,
// cmd/experiments for the full evaluation harness, and bench_test.go for
// the per-table/figure benchmarks. See README.md and ARCHITECTURE.md.
package repro
