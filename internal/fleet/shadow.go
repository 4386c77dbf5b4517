package fleet

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/query"
)

// shadowQueueDepth bounds the shadow job queue. Shadow scoring is a sampled
// measurement, not a guarantee: when the challenger cannot keep up, samples
// are dropped (and counted) rather than ever back-pressuring the serving
// goroutine.
const shadowQueueDepth = 1024

// shadowJob carries one served request to the shadow worker. Jobs are pooled
// and their context and champion buffers recycled, so steady-state
// enqueueing does not allocate. champion is a copy of the answer the live
// request served: that may sit in the request's own buffer, which is reused
// once the request returns.
type shadowJob struct {
	base     *query.Dict // the dictionary ctx was interned against
	ctx      query.Seq
	n        int
	champion []core.Suggestion
}

// shadowCounters aggregates one shadow slot's divergence measurements.
// overlapMilliSum accumulates rank overlap scaled by 1000 so the mean stays
// an atomic integer.
type shadowCounters struct {
	samples         atomic.Uint64
	covered         atomic.Uint64
	top1Mismatches  atomic.Uint64
	overlapMilliSum atomic.Uint64
}

// ShadowStats is one shadow slot's divergence snapshot, exposed through
// /v1/models and /v1/metrics: how often the challenger's top suggestion differs
// from the champion's, how much of the served top-N list the two models
// share on average, and how often the challenger answers at all (Coverage) —
// measured without ever serving the challenger.
type ShadowStats struct {
	Name             string  `json:"name"`
	Samples          uint64  `json:"samples"`
	Dropped          uint64  `json:"dropped"`
	Coverage         float64 `json:"coverage"`
	Top1MismatchRate float64 `json:"top1_mismatch_rate"`
	MeanRankOverlap  float64 `json:"mean_rank_overlap"`
}

// shadower owns the asynchronous challenger scoring: a bounded queue, one
// worker goroutine, and per-slot divergence counters. One worker is enough —
// shadow load equals live load at most, and sampling (dropping) under burst
// is the design, not a failure.
type shadower struct {
	reg     *Registry
	slots   []*Slot
	jobs    chan *shadowJob
	pool    sync.Pool
	dropped atomic.Uint64
	div     []shadowCounters // indexed like slots
	done    chan struct{}    // closed by close: the worker stops
	exited  chan struct{}    // closed by the worker as it returns
	once    sync.Once
}

func newShadower(reg *Registry, slots []*Slot) *shadower {
	sh := &shadower{
		reg:    reg,
		slots:  slots,
		jobs:   make(chan *shadowJob, shadowQueueDepth),
		div:    make([]shadowCounters, len(slots)),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	sh.pool.New = func() any { return &shadowJob{ctx: make(query.Seq, 0, 16)} }
	go sh.run()
	return sh
}

// enqueue hands a served request to the worker without ever blocking: when
// the queue is full the sample is dropped and counted. The context lives in
// a pooled request buffer upstream, and so may the answer: both are copied
// into the job's own recycled buffers first.
func (sh *shadower) enqueue(base *query.Dict, ctx query.Seq, n int, champion []core.Suggestion) {
	job := sh.pool.Get().(*shadowJob)
	job.base = base
	job.ctx = append(job.ctx[:0], ctx...)
	job.n = n
	job.champion = append(job.champion[:0], champion...)
	select {
	case sh.jobs <- job:
	default:
		sh.dropped.Add(1)
		sh.release(job)
	}
}

func (sh *shadower) release(job *shadowJob) {
	clear(job.champion) // do not retain a model's strings in the pool
	job.champion = job.champion[:0]
	job.base = nil
	sh.pool.Put(job)
}

// close stops the worker and waits for it to return. Idempotent.
func (sh *shadower) close() {
	sh.once.Do(func() { close(sh.done) })
	<-sh.exited
}

// run is the worker loop: score every queued request against every shadow
// slot through the shared cache (which doubles as cache warming for the
// challenger) and fold the divergence into the counters.
func (sh *shadower) run() {
	defer close(sh.exited)
	for {
		select {
		case <-sh.done:
			return
		case job := <-sh.jobs:
			for i, slot := range sh.slots {
				st := slot.State()
				if !st.Answers(job.base) {
					continue // a forced swap: this model does not read the context's IDs
				}
				got := sh.reg.cache.RecommendSlot(slot.id, st.Gen, st.Rec, job.ctx, job.n)
				sh.record(&sh.div[i], job.champion, got)
			}
			sh.release(job)
		}
	}
}

// record folds one (champion, challenger) answer pair into the counters:
// top-1 mismatch (do the models disagree on the single suggestion a user is
// most likely to click?) and rank overlap (the Jaccard-style share of the
// union of the two top-N lists both models produced).
func (sh *shadower) record(c *shadowCounters, champion, got []core.Suggestion) {
	c.samples.Add(1)
	if len(got) > 0 {
		c.covered.Add(1)
	}
	if top1Mismatch(champion, got) {
		c.top1Mismatches.Add(1)
	}
	c.overlapMilliSum.Add(uint64(rankOverlapMilli(champion, got)))
}

// top1Mismatch reports whether the two answers disagree about the top
// suggestion. Two empty answers agree; one-sided emptiness disagrees.
func top1Mismatch(a, b []core.Suggestion) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) != len(b)
	}
	return a[0].Query != b[0].Query
}

// rankOverlapMilli returns 1000 * |A ∩ B| / max(|A|, |B|) over the two
// suggestion lists' query sets — 1000 when the models surface the same
// result set (in any order), 0 when they share nothing. Lists are tiny
// (N ≈ 5), so the quadratic scan beats building sets.
func rankOverlapMilli(a, b []core.Suggestion) int {
	if len(a) == 0 && len(b) == 0 {
		return 1000
	}
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	shared := 0
	for _, x := range a {
		for _, y := range b {
			if x.Query == y.Query {
				shared++
				break
			}
		}
	}
	return 1000 * shared / max
}

// statRow snapshots one slot's counters into a ShadowStats row.
func (sh *shadower) statRow(i int) ShadowStats {
	slot := sh.slots[i]
	n := sh.div[i].samples.Load()
	s := ShadowStats{Name: slot.name, Samples: n, Dropped: sh.dropped.Load()}
	if n > 0 {
		s.Coverage = float64(sh.div[i].covered.Load()) / float64(n)
		s.Top1MismatchRate = float64(sh.div[i].top1Mismatches.Load()) / float64(n)
		s.MeanRankOverlap = float64(sh.div[i].overlapMilliSum.Load()) / (1000 * float64(n))
	}
	return s
}

// stats snapshots the per-slot divergence counters. Dropped samples are a
// queue-wide count reported on every row.
func (sh *shadower) stats() []ShadowStats {
	out := make([]ShadowStats, len(sh.slots))
	for i := range sh.slots {
		out[i] = sh.statRow(i)
	}
	return out
}

// statsFor returns the row of one shadow slot by name.
func (sh *shadower) statsFor(name string) (ShadowStats, bool) {
	for i, slot := range sh.slots {
		if slot.name == name {
			return sh.statRow(i), true
		}
	}
	return ShadowStats{}, false
}

// reset zeroes one slot's divergence counters (new challenger generation:
// stale measurements must not steer the ramp). The queue-wide dropped count
// is left alone.
func (sh *shadower) reset(name string) {
	for i, slot := range sh.slots {
		if slot.name == name {
			sh.div[i].samples.Store(0)
			sh.div[i].covered.Store(0)
			sh.div[i].top1Mismatches.Store(0)
			sh.div[i].overlapMilliSum.Store(0)
			return
		}
	}
}
