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
	keys, order := m.t.keyOrder()
	for _, id := range order {
		if m.holds(id) {
			out[keys[id]] = m.t.nodes[id].dist
		}
	}
	return out
}

// windowCounts is the reference for the trie's window counts: every window
// of 1..maxLen queries (0 = unbounded) counted by brute force, anywhere and
// at a session start, keyed in the Seq.Key layout.
func windowCounts(sessions []query.Session, maxLen int) (occ, start map[string]uint64) {
	occ, start = make(map[string]uint64), make(map[string]uint64)
	for _, s := range sessions {
		l := len(s.Queries)
		for j := 0; j < l; j++ {
			for k := 1; j+k <= l && (maxLen <= 0 || k <= maxLen); k++ {
				key := s.Queries[j : j+k].Key()
				occ[key] += s.Count
				if j == 0 {
					start[key] += s.Count
				}
			}
		}
	}
	return occ, start
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

// TestTrieNodesAreWindows holds the trie to a brute-force window count: its
// nodes are exactly the windows of the sessions up to D queries (every one
// when D is 0), each with the occurrence and session-start counts of
// Eq. (6), under its parent, the window minus its oldest query.
// TestEscapeTableCounts and TestEscapeTableMaxLen pin the reference itself
// to hand-counted corpora.
func TestTrieNodesAreWindows(t *testing.T) {
	type corpus struct {
		sessions []query.Session
		cfg      VMMConfig
	}
	var corpora []corpus
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 20 + rng.Intn(60)
		sessions := oracleCorpus(rng, vocab, 300+rng.Intn(1200))
		for _, cfg := range []VMMConfig{{}, {D: 2}, {D: 3}, {MinSupport: 5}, {D: 3, MinSupport: 20}} {
			cfg.Vocab = vocab
			corpora = append(corpora, corpus{sessions: sessions, cfg: cfg})
		}
	}
	for ci, c := range corpora {
		tr := growPST(c.sessions, c.cfg)
		occ, start := windowCounts(c.sessions, c.cfg.D)
		if len(tr.nodes)-1 != len(occ) {
			t.Fatalf("corpus %d, %+v: %d nodes, %d windows", ci, c.cfg, len(tr.nodes)-1, len(occ))
		}
		keys, _ := tr.keyOrder()
		longest := 0
		for id := 1; id < len(tr.nodes); id++ {
			n, key := tr.nodes[id], keys[id]
			if n.parent >= int32(id) || keys[n.parent] != key[4:] || int(n.depth) != len(key)/4 {
				t.Fatalf("corpus %d: node %v under parent %d is no extension of it", ci, query.SeqFromKey(key), n.parent)
			}
			if n.occ != occ[key] || n.startOcc != start[key] {
				t.Fatalf("corpus %d, %+v: window %v counts %d/%d, brute force %d/%d",
					ci, c.cfg, query.SeqFromKey(key), n.occ, n.startOcc, occ[key], start[key])
			}
			longest = max(longest, len(key)/4)
		}
		if bound := c.cfg.D; bound > 0 && tr.maxLen != bound || bound <= 0 && tr.maxLen < longest {
			t.Fatalf("corpus %d: window bound %d, D %d, longest window %d", ci, tr.maxLen, c.cfg.D, longest)
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
