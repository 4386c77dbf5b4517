package markov

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
)

// grownNodes is the reference for the ε-views: PST stage (b) run on its own
// for one ε, as this package grew every mixture component before they
// became views of one tree. Candidates are visited depth by depth; a
// supported one seeds when it is length 1, when ε <= 0, or when it diverges
// from its parent by more than ε, and every seed brings all its suffixes.
func grownNodes(sessions []query.Session, cfg VMMConfig) map[string]bool {
	cand := make(map[string]*Dist)
	for _, s := range sessions {
		for i := 1; i < len(s.Queries); i++ {
			limit := i
			if cfg.D > 0 && limit > cfg.D {
				limit = cfg.D
			}
			for k := 1; k <= limit; k++ {
				key := s.Queries[i-k : i].Key()
				if cand[key] == nil {
					cand[key] = NewDist()
				}
				cand[key].Add(s.Queries[i], s.Count)
			}
		}
	}
	keys := make([]string, 0, len(cand))
	for k := range cand {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	nodes := make(map[string]bool)
	for _, k := range keys {
		d := cand[k]
		if d.Total() < cfg.MinSupport {
			continue
		}
		grow := len(k) == 4 || cfg.Epsilon <= 0
		if !grow {
			parent := cand[k[4:]] // drop the oldest query
			grow = klSmoothedFast(parent, d, cfg.Vocab, sumPLogP(parent)) > cfg.Epsilon
		}
		if grow {
			for sk := k; len(sk) > 0; sk = sk[4:] {
				nodes[sk] = true
			}
		}
	}
	return nodes
}

// nodeSet lists a view's nodes with their follower distributions.
func nodeSet(m *VMM) map[string]*Dist {
	out := make(map[string]*Dist, m.NumNodes())
	for id, key := range m.t.keys {
		if m.holds(int32(id)) {
			out[key] = m.t.dists[id]
		}
	}
	return out
}

// oracleCorpus draws Zipf-skewed sessions of 1–6 queries with counts 1–20,
// so that candidates spread over every depth, support and divergence.
func oracleCorpus(rng *rand.Rand, vocab, n int) []query.Session {
	zipf := rand.NewZipf(rng, 1.3, 1.5, uint64(vocab-1))
	raw := make(map[string]uint64)
	for s := 0; s < n; s++ {
		seq := make(query.Seq, 1+rng.Intn(6))
		for i := range seq {
			seq[i] = query.ID(zipf.Uint64())
		}
		raw[seq.Key()] += 1 + uint64(rng.Intn(20))
	}
	sessions := make([]query.Session, 0, len(raw))
	for k, c := range raw {
		sessions = append(sessions, query.Session{Queries: query.SeqFromKey(k), Count: c})
	}
	query.SortSessions(sessions)
	return sessions
}

// TestViewsMatchPerEpsilonGrowth holds every ε-view of the one grown tree
// to the tree grown for that ε alone: the same node set, node for node, and
// so the same NumNodes and Depth. It covers the paper's eleven ε, ε = +Inf
// (the Adjacency degeneration), a negative ε, D-bounded trees and
// MinSupport > 0, on seeded random corpora.
func TestViewsMatchPerEpsilonGrowth(t *testing.T) {
	epsilons := append(DefaultEpsilons(), 0.2, 0.5, math.Inf(1), -1)
	shapes := []VMMConfig{
		{},
		{D: 2},
		{D: 3},
		{MinSupport: 5},
		{D: 3, MinSupport: 20},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 20 + rng.Intn(60)
		sessions := oracleCorpus(rng, vocab, 300+rng.Intn(1200))
		for _, shape := range shapes {
			cfg := shape
			cfg.Vocab = vocab
			tree := growPST(sessions, cfg)
			for _, eps := range epsilons {
				cfg.Epsilon = eps
				want := grownNodes(sessions, cfg)
				got := tree.view(eps)
				set := nodeSet(got)
				wantDepth := 0
				for k := range want {
					wantDepth = max(wantDepth, len(k)/4)
				}
				if got.NumNodes() != len(want) || len(set) != len(want) || got.Depth() != wantDepth {
					t.Errorf("seed %d, %+v: view holds %d nodes (%d listed) of depth %d, growth %d of depth %d",
						seed, cfg, got.NumNodes(), len(set), got.Depth(), len(want), wantDepth)
					continue
				}
				for k := range want {
					if set[k] == nil {
						t.Errorf("seed %d, %+v: growth keeps %v, the view does not", seed, cfg, query.SeqFromKey(k))
						break
					}
				}
			}
		}
	}
}

// TestMixtureComponentsAreViews: NewMVMM's components are the trees grown
// for their ε alone, and UnionNodes counts the largest of them.
func TestMixtureComponentsAreViews(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := 40
	sessions := oracleCorpus(rng, vocab, 900)
	m := NewMVMM(sessions, DefaultEpsilons(), vocab, MVMMOptions{TrainSample: 50, NewtonIters: 3})
	for i, c := range m.Components() {
		want := grownNodes(sessions, c.Config())
		set := nodeSet(c)
		if len(set) != len(want) {
			t.Fatalf("component %d (ε %v): %d nodes, growth %d", i, c.Config().Epsilon, len(set), len(want))
		}
		for k := range want {
			if set[k] == nil {
				t.Fatalf("component %d: growth keeps %v, the view does not", i, query.SeqFromKey(k))
			}
		}
	}
	if u, full := m.UnionNodes(), m.Components()[0].NumNodes(); u != full {
		t.Fatalf("UnionNodes = %d, the ε = 0 view holds %d", u, full)
	}
}
