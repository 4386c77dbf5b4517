// Package cluster implements the related-work family the paper argues
// against (Sec. II): cluster-based query recommendation from click-through
// data (Beeferman & Berger; Wen et al.; Baeza-Yates et al.). Queries sharing
// clicked URLs are grouped — here by single-link agglomeration over cosine
// similarity of URL click vectors, restricted to query pairs that share at
// least one URL (the bipartite graph keeps this sparse) — and queries from
// the same cluster are recommended for each other, ranked by popularity.
//
// The paper's critique is observable in the experiments: cluster-based
// suggestions are *similar* queries (good replacements) rather than the
// queries a user asks *next*, so their NDCG against next-query ground truth
// trails even the pair-wise baselines.
package cluster

import (
	"io"
	"math"
	"sort"

	"repro/internal/logfmt"
	"repro/internal/model"
	"repro/internal/query"
)

// Config controls click-through clustering.
type Config struct {
	// MinSimilarity is the cosine threshold for linking two queries.
	MinSimilarity float64
	// MinClicks drops queries with fewer total clicks (noise).
	MinClicks uint64
}

// DefaultConfig mirrors the usual "share a meaningful fraction of clicks"
// setting of the click-through literature.
func DefaultConfig() Config {
	return Config{MinSimilarity: 0.5, MinClicks: 2}
}

// ClickGraph is the query–URL bipartite click graph accumulated from a raw
// log.
type ClickGraph struct {
	dict   *query.Dict
	clicks map[query.ID]map[string]uint64 // query -> URL -> count
	total  map[query.ID]uint64            // query submission counts
}

// NewClickGraph returns an empty graph interning into dict.
func NewClickGraph(dict *query.Dict) *ClickGraph {
	return &ClickGraph{
		dict:   dict,
		clicks: make(map[query.ID]map[string]uint64),
		total:  make(map[query.ID]uint64),
	}
}

// Add feeds one raw log record.
func (g *ClickGraph) Add(rec logfmt.Record) {
	id := g.dict.Intern(rec.Query)
	g.total[id]++
	if len(rec.Clicks) == 0 {
		return
	}
	m := g.clicks[id]
	if m == nil {
		m = make(map[string]uint64)
		g.clicks[id] = m
	}
	for _, c := range rec.Clicks {
		m[c.URL]++
	}
}

// AddAll drains a record stream.
func (g *ClickGraph) AddAll(r *logfmt.Reader) error {
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		g.Add(rec)
	}
}

// NumQueries reports how many distinct queries have been observed.
func (g *ClickGraph) NumQueries() int { return len(g.total) }

// cosine computes the cosine similarity of two URL count vectors.
func cosine(a, b map[string]uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot, na, nb float64
	for u, ca := range a {
		na += float64(ca) * float64(ca)
		if cb, ok := b[u]; ok {
			dot += float64(ca) * float64(cb)
		}
	}
	for _, cb := range b {
		nb += float64(cb) * float64(cb)
	}
	if dot == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Recommender groups queries into click-through clusters and recommends
// same-cluster queries ranked by popularity.
type Recommender struct {
	cfg      Config
	cluster  map[query.ID]int
	members  map[int][]query.ID // popularity-ranked per cluster
	popular  map[query.ID]uint64
	totals   map[int]uint64 // summed member popularity per cluster
	clusters int
}

// Build clusters the click graph.
func Build(g *ClickGraph, cfg Config) *Recommender {
	if cfg.MinSimilarity <= 0 {
		cfg.MinSimilarity = DefaultConfig().MinSimilarity
	}
	// Candidate queries with enough click evidence.
	var ids []query.ID
	for id, urls := range g.clicks {
		var n uint64
		for _, c := range urls {
			n += c
		}
		if n >= cfg.MinClicks {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Inverted URL index: only pairs sharing a URL can link.
	byURL := make(map[string][]query.ID)
	for _, id := range ids {
		for u := range g.clicks[id] {
			byURL[u] = append(byURL[u], id)
		}
	}

	uf := newUnionFind(ids)
	for _, sharers := range byURL {
		for i := 1; i < len(sharers); i++ {
			a, b := sharers[0], sharers[i]
			if uf.find(a) == uf.find(b) {
				continue
			}
			if cosine(g.clicks[a], g.clicks[b]) >= cfg.MinSimilarity {
				uf.union(a, b)
			}
		}
	}

	r := &Recommender{
		cfg:     cfg,
		cluster: make(map[query.ID]int),
		members: make(map[int][]query.ID),
		popular: g.total,
	}
	rootIdx := make(map[query.ID]int)
	for _, id := range ids {
		root := uf.find(id)
		ci, ok := rootIdx[root]
		if !ok {
			ci = r.clusters
			r.clusters++
			rootIdx[root] = ci
		}
		r.cluster[id] = ci
		r.members[ci] = append(r.members[ci], id)
	}
	for ci := range r.members {
		ms := r.members[ci]
		sort.Slice(ms, func(i, j int) bool {
			if g.total[ms[i]] != g.total[ms[j]] {
				return g.total[ms[i]] > g.total[ms[j]]
			}
			return ms[i] < ms[j]
		})
	}
	r.buildTotals()
	return r
}

// buildTotals caches each cluster's summed member popularity — the Predict
// score denominator — so Predict does not walk the member list twice.
func (r *Recommender) buildTotals() {
	r.totals = make(map[int]uint64, len(r.members))
	for ci, ms := range r.members {
		var total uint64
		for _, m := range ms {
			total += r.popular[m]
		}
		r.totals[ci] = total
	}
}

// NumClusters reports the number of clusters formed.
func (r *Recommender) NumClusters() int { return r.clusters }

// ClusterOf returns the cluster index of q, or -1.
func (r *Recommender) ClusterOf(q query.ID) int {
	if ci, ok := r.cluster[q]; ok {
		return ci
	}
	return -1
}

// Name implements model.Predictor.
func (r *Recommender) Name() string { return "Cluster" }

// Covers implements model.Predictor: the last query must be in a cluster
// with at least one other member.
func (r *Recommender) Covers(ctx query.Seq) bool {
	if len(ctx) == 0 {
		return false
	}
	ci, ok := r.cluster[ctx.Last()]
	return ok && len(r.members[ci]) > 1
}

// Predict implements model.Predictor: same-cluster queries by popularity,
// excluding the query itself. The member lists are popularity-ranked at build
// time and cluster totals are cached, so the call is a map lookup plus one
// pass over at most topN+1 members.
func (r *Recommender) Predict(ctx query.Seq, topN int) []model.Prediction {
	if topN <= 0 || !r.Covers(ctx) {
		return nil
	}
	last := ctx.Last()
	ci := r.cluster[last]
	total := r.totals[ci]
	if total == 0 {
		return nil
	}
	var out []model.Prediction
	for _, m := range r.members[ci] {
		if m == last {
			continue
		}
		out = append(out, model.Prediction{Query: m, Score: float64(r.popular[m]) / float64(total)})
		if len(out) == topN {
			break
		}
	}
	return out
}

// Prob implements model.Predictor.
func (r *Recommender) Prob(ctx query.Seq, q query.ID) float64 {
	if !r.Covers(ctx) {
		return 0
	}
	ci := r.cluster[ctx.Last()]
	if ck, ok := r.cluster[q]; !ok || ck != ci {
		return 0
	}
	total := r.totals[ci]
	if total == 0 {
		return 0
	}
	return float64(r.popular[q]) / float64(total)
}

var _ model.Predictor = (*Recommender)(nil)

// unionFind over query IDs.
type unionFind struct {
	parent map[query.ID]query.ID
	rank   map[query.ID]int
}

func newUnionFind(ids []query.ID) *unionFind {
	uf := &unionFind{parent: make(map[query.ID]query.ID, len(ids)), rank: make(map[query.ID]int)}
	for _, id := range ids {
		uf.parent[id] = id
	}
	return uf
}

func (uf *unionFind) find(x query.ID) query.ID {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b query.ID) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
