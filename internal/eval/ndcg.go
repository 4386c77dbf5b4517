// Package eval implements the paper's evaluation stack (Secs. V.C–V.H):
// NDCG@n accuracy against test-window ground truth, prediction coverage with
// the Table VI unpredictability-reason taxonomy, the average log-loss of
// Eq. (1), the context-entropy analysis of Fig. 2, and the simulated user
// study of Sec. V.H (precision/recall and position-wise precision).
package eval

import (
	"math"

	"repro/internal/model"
	"repro/internal/query"
)

// NDCG computes the Normalized Discounted Cumulative Gain at position n of
// a predicted ranking, per Eq. (11):
//
//	N(n) = Z_n · Σ_{j=1..n} (2^{r(j)} − 1) / log10(1 + j)
//
// ratings holds r(j) for each predicted position (paper weights: 5 for the
// ground truth's top query down to 1 for its fifth; 0 otherwise). ideal
// holds the ground truth's own ratings in descending order; Z_n normalises
// so a perfect list scores 1. Logs are base 10 per the paper's footnote.
func NDCG(ratings, ideal []int, n int) float64 {
	dcg := dcgAt(ratings, n)
	idcg := dcgAt(ideal, n)
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

func dcgAt(ratings []int, n int) float64 {
	var dcg float64
	for j := 1; j <= n && j <= len(ratings); j++ {
		r := ratings[j-1]
		if r <= 0 {
			continue
		}
		dcg += (math.Pow(2, float64(r)) - 1) / math.Log10(1+float64(j))
	}
	return dcg
}

// IdealRatings returns the ground truth's own rating vector for a context:
// topN, topN-1, ..., down to 1, truncated to the number of actual followers.
func IdealRatings(gt *GroundTruth, ctx query.Seq) []int {
	followers := gt.Lookup(ctx)
	out := make([]int, len(followers))
	for i := range followers {
		out[i] = gt.TopN - i
	}
	return out
}

// AccuracyResult aggregates a model's NDCG over a set of test contexts.
type AccuracyResult struct {
	Model    string
	Contexts int     // contexts the model covered and was scored on
	NDCG     float64 // mean NDCG@n over covered contexts
}

// MeanNDCG evaluates a predictor on the given test contexts against ground
// truth, returning the mean NDCG@n over the contexts the model covers
// (uncovered contexts are a coverage issue, measured separately — the paper
// reports accuracy and coverage as independent axes).
func MeanNDCG(p model.Predictor, gt *GroundTruth, contexts []query.Seq, n int) AccuracyResult {
	res := AccuracyResult{Model: p.Name()}
	var sum float64
	for _, ctx := range contexts {
		preds := p.Predict(ctx, n)
		if preds == nil {
			continue
		}
		ratings := make([]int, len(preds))
		for i, pr := range preds {
			ratings[i] = gt.Rating(ctx, pr.Query)
		}
		sum += NDCG(ratings, IdealRatings(gt, ctx), n)
		res.Contexts++
	}
	if res.Contexts > 0 {
		res.NDCG = sum / float64(res.Contexts)
	}
	return res
}

// LogLoss computes the Eq. (1) average log-loss rate of a model over test
// sequences: the negative mean per-sequence average of log10 P̂(q_j | prefix),
// for sequences of length >= 2. Zero-probability events are floored at
// 1/(10·vocab) so a single uncovered step yields a large but finite loss.
func LogLoss(p model.Predictor, sequences []query.Session, vocab int) float64 {
	floor := 1.0 / (10 * float64(vocab))
	if vocab <= 0 {
		floor = 1e-9
	}
	var total float64
	var count int
	for _, s := range sequences {
		if len(s.Queries) < 2 {
			continue
		}
		var seqLoss float64
		for j := 1; j < len(s.Queries); j++ {
			pr := p.Prob(s.Queries[:j], s.Queries[j])
			if pr < floor {
				pr = floor
			}
			seqLoss += math.Log10(pr)
		}
		total += seqLoss / float64(len(s.Queries))
		count++
	}
	if count == 0 {
		return 0
	}
	return -total / float64(count)
}
