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
// within 1e-12. PredictBatch extends the same engine to whole batches,
// sharing descent work across reversed-sorted sibling contexts.
//
// # The model file
//
// A model file is one container: the dictionary and the compiled blob at a
// page-aligned offset, so core.LoadPath maps the file and slices the arrays
// out of the page cache — no decoding, lazy page-in, read-only sharing
// across processes. The blob has two encodings. CPS5, what Save writes,
// quantises follower probabilities to fixed-point uint16 against per-node
// float32 steps, narrows every node array to its needed width and
// varint-packs the follower-ID lists and CSR offsets: about 40% of the
// exact size at a bounded (≤ ~2e-5 absolute) probability error. CPS3 stores
// every CSR array as exact fixed-width little-endian values; it is what a
// model CPS5 cannot hold is saved as, and the oracle the parity tests
// compare CPS5 against. Table VII reports both blob sizes. Platforms
// without mmap or little-endian layout decode the same blobs portably.
//
// # Serving layer
//
// internal/serve exposes single and batch suggestion endpoints with
// metrics, panic recovery and hot model reload; internal/cache fronts the
// model with a sharded LRU keyed on interned context IDs; cmd/serve runs
// the server with SIGHUP/POST-reload and graceful shutdown; cmd/loadgen
// replays power-law synthetic traffic against it. The /suggest hot path is
// allocation-free end to end and CI gates it (make bench-gates;
// cmd/benchjson checks the allocation and blob-size ceilings the Makefile
// lists against the benchmarks' output).
//
// Entry points: internal/core for the end-to-end recommender API,
// cmd/experiments for the full evaluation harness, and bench_test.go for
// the per-table/figure benchmarks. See README.md and ARCHITECTURE.md.
package repro
