package eval

import (
	"repro/internal/model"
	"repro/internal/query"
)

// RelatednessOracle judges whether candidate is an appropriate
// recommendation in the context of query a — the simulated stand-in for the
// paper's 30 human labelers (see ARCHITECTURE.md §1). loggen.Universe implements
// it via the generator's latent topic/relation graph.
type RelatednessOracle interface {
	Related(a, candidate string) bool
}

// MethodStudy holds one method's user-evaluation outcome (Table VIII and
// Figs. 13–14).
type MethodStudy struct {
	Name           string
	Predicted      int   // total predicted queries across contexts
	Approved       int   // predictions approved by the oracle
	PredictedAtPos []int // per rank position 1..TopN
	ApprovedAtPos  []int
	recallHits     int // approved predictions counted against the pooled set
}

// Precision returns approved/predicted (Fig. 13a).
func (m MethodStudy) Precision() float64 {
	if m.Predicted == 0 {
		return 0
	}
	return float64(m.Approved) / float64(m.Predicted)
}

// PrecisionAt returns the rank-j precision (Fig. 14), 1-based.
func (m MethodStudy) PrecisionAt(j int) float64 {
	if j < 1 || j > len(m.PredictedAtPos) || m.PredictedAtPos[j-1] == 0 {
		return 0
	}
	return float64(m.ApprovedAtPos[j-1]) / float64(m.PredictedAtPos[j-1])
}

// StudyResult is the complete simulated user evaluation.
type StudyResult struct {
	Methods []MethodStudy
	// UniqueGroundTruth is the number of distinct approved (context, query)
	// pairs pooled over all methods — the paper's 9,489 figure.
	UniqueGroundTruth int
}

// Recall returns a method's recall against the pooled approved set
// (Fig. 13b).
func (r StudyResult) Recall(i int) float64 {
	if r.UniqueGroundTruth == 0 {
		return 0
	}
	return float64(r.Methods[i].recallHits) / float64(r.UniqueGroundTruth)
}

// UserStudy reproduces the Sec. V.H procedure: each method predicts top-N
// queries for every sampled context; the oracle approves a prediction when
// it is "appropriate in the context" — related to every query the user
// issued, not merely the most recent one (the paper's labelers judged
// appropriateness against the whole context) — or when it is an actual
// ground-truth follower; approved predictions pooled over all methods
// (deduplicated per context) form the user-centric ground truth for recall.
func UserStudy(methods []model.Predictor, contexts []query.Seq, dict *query.Dict,
	oracle RelatednessOracle, gt *GroundTruth, topN int) StudyResult {
	res := StudyResult{Methods: make([]MethodStudy, len(methods))}
	type pair struct {
		ctx string
		q   query.ID
	}
	pooled := make(map[pair]struct{})
	perMethodApproved := make([]map[pair]struct{}, len(methods))
	for i, m := range methods {
		res.Methods[i] = MethodStudy{
			Name:           m.Name(),
			PredictedAtPos: make([]int, topN),
			ApprovedAtPos:  make([]int, topN),
		}
		perMethodApproved[i] = make(map[pair]struct{})
	}
	for _, ctx := range contexts {
		ctxStrings := make([]string, len(ctx))
		for k, q := range ctx {
			ctxStrings[k] = dict.String(q)
		}
		key := ctx.Key()
		for i, m := range methods {
			preds := m.Predict(ctx, topN)
			for j, p := range preds {
				res.Methods[i].Predicted++
				res.Methods[i].PredictedAtPos[j]++
				// The labelers judged semantic appropriateness only; they
				// never saw the behavioural ground truth. When an oracle is
				// supplied it is therefore the sole judge, applied to the
				// user's current (most recent) query — matching the paper's
				// approval examples ("Verizon" after "GE", "Hertz car
				// rental" after "budget car rental") — falling back to the
				// preceding query when the current one is too ambiguous to
				// decide (the paper's "Java" case: a labeler consults the
				// context). The gt fallback exists for data-only callers
				// with no oracle available.
				approved := false
				if oracle != nil {
					cand := dict.String(p.Query)
					approved = oracle.Related(ctxStrings[len(ctxStrings)-1], cand)
					if !approved && len(ctxStrings) >= 2 {
						approved = oracle.Related(ctxStrings[len(ctxStrings)-2], cand)
					}
				} else if gt != nil && gt.Rating(ctx, p.Query) > 0 {
					approved = true
				}
				if approved {
					res.Methods[i].Approved++
					res.Methods[i].ApprovedAtPos[j]++
					pr := pair{ctx: key, q: p.Query}
					pooled[pr] = struct{}{}
					perMethodApproved[i][pr] = struct{}{}
				}
			}
		}
	}
	res.UniqueGroundTruth = len(pooled)
	for i := range methods {
		res.Methods[i].recallHits = len(perMethodApproved[i])
	}
	return res
}
