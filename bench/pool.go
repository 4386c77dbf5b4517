package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/serve"
)

// item is one (context → true next query) pair of the held-out stream: a
// session prefix and the query its user issued next.
type item struct {
	ctx  []string          // session prefix, oldest first
	next string            // what the user actually searched next
	ids  query.Seq         // ctx interned against the served dictionary
	want []core.Suggestion // the oracle: core.RecommendIDs on the served model
}

// bodyReader is a resettable request body, so one prebuilt POST request can
// be replayed every lap without the harness allocating.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// pool is the fixed request sequence of one lap.
type pool struct {
	items  []item
	perReq int             // contexts per request: 1 (GET) or batchSize
	reqs   []*http.Request // len(items)/perReq prebuilt requests
	bodies [][]byte        // POST bodies, nil for GET workloads
	rds    []*bodyReader   // the requests' bodies, Reset before each replay
	// distinct counts the lap's contexts that differ after interning and
	// reach the cache (non-empty); it sizes the cache.
	distinct int
}

// maxPoolSessions stops pool building when the held-out stream cannot supply
// enough distinct contexts; the default universe supplies 2048 within ~10k.
const maxPoolSessions = 2_000_000

// buildItems draws n items from the held-out stream (the generator at
// seed+1). With cycle == 0 it keeps every session prefix in generation
// order, so popular contexts repeat as often as the log makes them. With
// cycle > 0 it keeps the first cycle prefixes that are non-empty and
// pairwise distinct after interning, and repeats that cycle to fill n.
func buildItems(rec core.Recommender, seed int64, n, cycle int) ([]item, int, error) {
	gen, err := generatorFor(seed + 1)
	if err != nil {
		return nil, 0, err
	}
	want := n
	if cycle > 0 {
		if n%cycle != 0 {
			return nil, 0, fmt.Errorf("lap of %d contexts is not a whole number of %d-context cycles", n, cycle)
		}
		want = cycle
	}
	items := make([]item, 0, n)
	seen := make(map[string]bool)
	for sessions := 0; len(items) < want; sessions++ {
		if sessions == maxPoolSessions {
			return nil, 0, fmt.Errorf("held-out stream gave only %d of %d contexts in %d sessions", len(items), want, sessions)
		}
		qs := gen.Session().Queries
		for l := 1; l < len(qs) && len(items) < want; l++ {
			ids := core.InternContext(rec.Dict(), qs[:l])
			key := ids.Key()
			if cycle > 0 && (len(ids) == 0 || seen[key]) {
				continue
			}
			if len(ids) > 0 {
				seen[key] = true
			}
			items = append(items, item{
				ctx:  qs[:l],
				next: qs[l],
				ids:  ids,
				want: core.RecommendIDs(rec, ids, topN),
			})
		}
	}
	for len(items) < n {
		items = append(items, items[len(items)-want])
	}
	return items, len(seen), nil
}

// buildPool turns a workload into its lap: items from the held-out stream
// and one prebuilt request per GET context or per 64-context batch.
func buildPool(w *workload, rec core.Recommender, seed int64) (*pool, error) {
	cycle := 0
	if w.distinct {
		cycle = min(distinctCycle, w.contexts)
	}
	items, distinct, err := buildItems(rec, seed, w.contexts, cycle)
	if err != nil {
		return nil, err
	}
	return poolFromItems(items, distinct, w.batch)
}

// poolFromItems prebuilds the requests that carry items: one GET each, or
// one POST per batchSize of them.
func poolFromItems(items []item, distinct int, batch bool) (*pool, error) {
	p := &pool{items: items, perReq: 1, distinct: distinct}
	if !batch {
		for _, it := range items {
			v := url.Values{"n": {strconv.Itoa(topN)}}
			for _, q := range it.ctx {
				v.Add("q", q)
			}
			req, err := http.NewRequest(http.MethodGet, "/suggest?"+v.Encode(), nil)
			if err != nil {
				return nil, err
			}
			p.reqs = append(p.reqs, req)
		}
		return p, nil
	}
	if len(items)%batchSize != 0 {
		return nil, fmt.Errorf("lap of %d contexts is not a whole number of %d-context batches", len(items), batchSize)
	}
	p.perReq = batchSize
	for lo := 0; lo < len(items); lo += batchSize {
		br := serve.BatchRequest{Requests: make([]serve.BatchItem, batchSize)}
		for i, it := range items[lo : lo+batchSize] {
			br.Requests[i] = serve.BatchItem{Context: it.ctx, N: topN}
		}
		body, err := json.Marshal(br)
		if err != nil {
			return nil, err
		}
		rd := new(bodyReader)
		req, err := http.NewRequest(http.MethodPost, "/v1/suggest/batch", rd)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		p.reqs = append(p.reqs, req)
		p.bodies = append(p.bodies, body)
		p.rds = append(p.rds, rd)
	}
	return p, nil
}

// distinctCycle is the number of pairwise-distinct contexts the all-miss
// workloads cycle through.
const distinctCycle = 2048

// cacheCapacity is the result-cache size the workload asks cmd/serve for
// (its -cache flag): a share of the lap's distinct contexts, or 0 for the
// default.
func (p *pool) cacheCapacity(w *workload) int {
	if w.cacheDiv == 0 {
		return 0
	}
	return p.distinct / w.cacheDiv
}

// requestBytes is the size of the prebuilt pool: request lines plus bodies.
func (p *pool) requestBytes() int {
	n := 0
	for i, r := range p.reqs {
		n += len(r.URL.Path) + len(r.URL.RawQuery)
		if p.bodies != nil {
			n += len(p.bodies[i])
		}
	}
	return n
}
