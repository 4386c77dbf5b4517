package eval

import (
	"repro/internal/markov"
	"repro/internal/query"
)

// ContextEntropy computes the Fig. 2 curve: the average prediction entropy
// of the next query given contexts of each length 0..maxLen. Length 0 is
// the entropy of the unconditional next-query distribution; for length
// L >= 1 it is the frequency-weighted mean entropy of the follower
// distribution of each distinct length-L context (session prefixes, per the
// Sec. V.A.5 context derivation: the N-gram's states). Entropy is in log
// base 10, summed in a fixed order, so every call gives the same bits.
func ContextEntropy(sessions []query.Session, maxLen int) []float64 {
	out := make([]float64, maxLen+1)

	// Length 0: one distribution over all predicted queries.
	marginal := markov.NewDist()
	for _, s := range sessions {
		for i := 1; i < len(s.Queries); i++ {
			marginal.Add(s.Queries[i], s.Count)
		}
	}
	out[0] = marginal.Entropy()

	ng := markov.NewNGram(sessions, 0)
	for l := 1; l <= maxLen; l++ {
		var sum float64
		var mass uint64
		for _, d := range ng.States(l) {
			sum += float64(d.Total()) * d.Entropy()
			mass += d.Total()
		}
		if mass > 0 {
			out[l] = sum / float64(mass)
		}
	}
	return out
}
