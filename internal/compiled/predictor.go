package compiled

import (
	"repro/internal/model"
	"repro/internal/query"
)

// Stable family identifiers reported by Shape.Family and used as the
// `-arms family=path` syntax in cmd/serve, the `/v1/models` payload and the
// X-Serve-Arm response header. They are part of the serving API: renaming
// one is a breaking change for fleet operators.
const (
	FamilyMVMM         = "mvmm"         // compiled mixture-of-VMMs trie (this package)
	FamilyHMM          = "hmm"          // hidden Markov model (internal/hmm)
	FamilyCluster      = "cluster"      // cluster-conditioned popularity (internal/cluster)
	FamilyAdjacency    = "adjacency"    // pairwise adjacency baseline (internal/pairwise)
	FamilyCooccurrence = "cooccurrence" // pairwise co-occurrence baseline (internal/pairwise)
)

// Shape describes a Predictor's serving-relevant geometry: which paper model
// family it belongs to, how big it is, and whether its hot path honours the
// zero-allocation contract. It is surfaced through /v1/models so operators
// can see what each fleet arm actually is.
type Shape struct {
	// Family is the stable family identifier (one of the Family* constants).
	Family string
	// Label is the human-readable display name, e.g. "MVMM" or
	// "HMM (16 states)" — the table row label in the paper's terms.
	Label string
	// Vocab is the query vocabulary size the model was trained over.
	Vocab int
	// States counts the model's conditioning states: trie nodes for the
	// compiled mixture, hidden states for the HMM, clusters for the
	// cluster model, adjacency sources for the pairwise baselines.
	States int
	// Depth is the longest context suffix the model conditions on;
	// 0 means the model consumes the entire context (the HMM forward
	// pass has no fixed horizon).
	Depth int
	// Quantised reports fixed-point (CPS5) probability storage.
	Quantised bool
	// ZeroAlloc reports that PredictInto performs no per-call heap
	// allocations in steady state (scratch is pooled or caller-supplied).
	// Arms advertising it are benchmark-gated in CI.
	ZeroAlloc bool
}

// Predictor is the single serving seam every model family implements: one
// ranked-prediction primitive, one probability query, one shape descriptor.
// The serving stack (core.Recommender, cache, fleet, serve) is expressed
// entirely over this interface, so wiring a new paper model into the fleet
// means implementing these three methods and nothing else.
//
// Contract:
//
//   - PredictInto appends up to topN ranked predictions for ctx to dst and
//     returns the extended slice; dst is the caller's scratch and may be a
//     recycled buffer (pass dst[:0] to reuse). Implementations must not
//     retain ctx or dst. An empty, uncovered or unknown context appends
//     nothing. Scores are descending, comparable within one call only.
//   - Prob estimates P̂(q | ctx), 0 for uncovered contexts.
//   - Implementations must be immutable after construction: both methods
//     are safe for unbounded concurrent callers without locking.
//   - A Shape with ZeroAlloc set promises PredictInto allocates nothing in
//     steady state when dst has capacity; internal scratch must be pooled.
type Predictor interface {
	PredictInto(dst []model.Prediction, ctx query.Seq, topN int) []model.Prediction
	Prob(ctx query.Seq, q query.ID) float64
	Shape() Shape
}

// PredictInto implements Predictor for the compiled trie: it is
// AppendPredictions under the interface's name, one trie descent with pooled
// scratch and zero steady-state allocations.
func (c *Model) PredictInto(dst []model.Prediction, ctx query.Seq, topN int) []model.Prediction {
	return c.AppendPredictions(dst, ctx, topN)
}

// Shape reports the compiled model's family and geometry.
func (c *Model) Shape() Shape {
	return Shape{
		Family:    FamilyMVMM,
		Label:     c.Name(),
		Vocab:     c.Vocab(),
		States:    c.Nodes(),
		Depth:     c.Depth(),
		Quantised: c.Quantised(),
		ZeroAlloc: true,
	}
}

var _ Predictor = (*Model)(nil)
