// Package model defines Predictor, the one interface every query prediction
// model in the repository implements — the two pair-wise baselines
// (Adjacency, Co-occurrence), the three sequential models (variable-length
// N-gram, VMM, MVMM), the HMM and cluster extensions, and the compiled MVMM
// trie a server answers from — so the evaluation harness scores them all,
// the served bytes included, through one code path. internal/predictortest
// is its executable specification.
package model

import "repro/internal/query"

// Prediction is one ranked next-query recommendation with its model score.
// Scores are comparable within a single Predict call only.
type Prediction struct {
	Query query.ID
	Score float64
}

// Predictor is the contract of a trained query prediction model.
type Predictor interface {
	// Name returns the display name used in tables ("Adjacency", "MVMM", ...).
	Name() string
	// Predict returns up to topN ranked predictions of the user's next
	// query given the context (the paper's s = [q1, ..., qi-1]).
	// It returns nil when the model does not cover the context.
	Predict(ctx query.Seq, topN int) []Prediction
	// Prob returns the model's estimate of P̂(q | ctx), used for the
	// log-loss / entropy analyses. Models return 0 for uncovered contexts.
	Prob(ctx query.Seq, q query.ID) float64
	// Covers reports whether the model can make any prediction for ctx.
	Covers(ctx query.Seq) bool
}

// TopQueries extracts just the query IDs from a prediction list, preserving
// rank order.
func TopQueries(ps []Prediction) []query.ID {
	out := make([]query.ID, len(ps))
	for i, p := range ps {
		out[i] = p.Query
	}
	return out
}
