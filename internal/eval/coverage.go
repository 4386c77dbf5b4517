package eval

import (
	"repro/internal/model"
	"repro/internal/query"
)

// Coverage returns the fraction of test contexts the model can predict for
// (Sec. V.C.1 / Figs. 10–11).
func Coverage(p model.Predictor, contexts []query.Seq) float64 {
	if len(contexts) == 0 {
		return 0
	}
	covered := 0
	for _, ctx := range contexts {
		if p.Covers(ctx) {
			covered++
		}
	}
	return float64(covered) / float64(len(contexts))
}

// Reason classifies why a model could not predict for a test context —
// the paper's Table VI taxonomy, keyed on the user's current (last context)
// query, whose training history is what each model's coverage mechanically
// depends on.
type Reason int

// Table VI reasons.
const (
	ReasonCovered       Reason = iota // not unpredictable
	ReasonNewQuery                    // (1) the current query never occurs in training
	ReasonSingletonOnly               // (2) it occurs only in length-1 training sessions
	ReasonLastPosOnly                 // (3) it occurs only at the final position of sessions
	ReasonUntrainedGram               // (4) N-gram only: the full context is not a trained state
	numReasons
)

// ReasonNames gives display labels in Reason order.
var ReasonNames = [numReasons]string{
	"covered",
	"(1) new query",
	"(2) only in length-1 sessions",
	"(3) only at last session position",
	"(4) context not a trained N-gram state",
}

// String returns the reason's Table VI label, or "unknown" outside the
// taxonomy.
func (r Reason) String() string {
	if int(r) < len(ReasonNames) {
		return ReasonNames[r]
	}
	return "unknown"
}

// TrainStats records, per query, the training-side facts Table VI's
// taxonomy needs.
type TrainStats struct {
	seen         map[query.ID]struct{} // occurs anywhere in training
	inMultiQuery map[query.ID]struct{} // occurs in a session of length >= 2
	hasFollower  map[query.ID]struct{} // occurs at a non-final position
}

// NewTrainStats scans aggregated training sessions.
func NewTrainStats(sessions []query.Session) *TrainStats {
	ts := &TrainStats{
		seen:         make(map[query.ID]struct{}),
		inMultiQuery: make(map[query.ID]struct{}),
		hasFollower:  make(map[query.ID]struct{}),
	}
	for _, s := range sessions {
		for i, q := range s.Queries {
			ts.seen[q] = struct{}{}
			if len(s.Queries) >= 2 {
				ts.inMultiQuery[q] = struct{}{}
			}
			if i < len(s.Queries)-1 {
				ts.hasFollower[q] = struct{}{}
			}
		}
	}
	return ts
}

// Seen reports whether q occurs anywhere in training.
func (ts *TrainStats) Seen(q query.ID) bool {
	_, ok := ts.seen[q]
	return ok
}

// InMultiQuerySession reports whether q occurs in a session of length >= 2.
func (ts *TrainStats) InMultiQuerySession(q query.ID) bool {
	_, ok := ts.inMultiQuery[q]
	return ok
}

// HasFollower reports whether q ever precedes another query in training.
func (ts *TrainStats) HasFollower(q query.ID) bool {
	_, ok := ts.hasFollower[q]
	return ok
}

// Classify assigns the Table VI reason for a model's failure to cover ctx.
// isNGram enables reason (4). Covered contexts return ReasonCovered.
func (ts *TrainStats) Classify(p model.Predictor, ctx query.Seq, isNGram bool) Reason {
	if p.Covers(ctx) {
		return ReasonCovered
	}
	if len(ctx) == 0 {
		return ReasonNewQuery
	}
	last := ctx.Last()
	switch {
	case !ts.Seen(last):
		return ReasonNewQuery
	case !ts.InMultiQuerySession(last):
		return ReasonSingletonOnly
	case !ts.HasFollower(last):
		return ReasonLastPosOnly
	case isNGram:
		return ReasonUntrainedGram
	default:
		// The last query has followers yet the model still fails — for the
		// suffix-matching models this cannot happen; attribute to (3) as
		// the closest mechanical cause.
		return ReasonLastPosOnly
	}
}

// ReasonCounts tallies Table VI reasons for a model over test contexts.
func ReasonCounts(p model.Predictor, ts *TrainStats, contexts []query.Seq, isNGram bool) [numReasons]int {
	var counts [numReasons]int
	for _, ctx := range contexts {
		counts[ts.Classify(p, ctx, isNGram)]++
	}
	return counts
}

// NumReasons exposes the taxonomy size for table rendering.
const NumReasons = int(numReasons)
