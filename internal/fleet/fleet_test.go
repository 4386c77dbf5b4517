package fleet

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// trainRec builds a tiny recommender over base vocabulary (o2 …) plus any
// extra queries interned after it, trained on sessions over the extra
// vocabulary when given (so "challenger" models answer differently), the
// base chain otherwise.
func trainRec(t testing.TB, extra ...string) core.Recommender {
	t.Helper()
	d := query.NewDict()
	a, b, c := d.Intern("o2"), d.Intern("o2 mobile"), d.Intern("o2 mobile phones")
	var ids []query.ID
	for _, q := range extra {
		ids = append(ids, d.Intern(q))
	}
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b, c})
		if len(ids) >= 2 {
			// Give the extended model its own behaviour: after o2, it has
			// also seen the extra chain.
			s := append(query.Seq{a}, ids...)
			sessions = append(sessions, s)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	return core.TrainFromSessions(d, sessions, cfg)
}

// permutedRec trains a model whose dictionary assigns the base vocabulary
// different IDs — the incompatible-reload case.
func permutedRec(t testing.TB) core.Recommender {
	t.Helper()
	d := query.NewDict()
	c, b, a := d.Intern("o2 mobile phones"), d.Intern("o2 mobile"), d.Intern("o2")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b, c})
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	return core.TrainFromSessions(d, sessions, cfg)
}

func newTestRouter(t testing.TB, wChamp, wChal uint32) (*Registry, *Router) {
	t.Helper()
	reg := NewRegistry(1 << 10)
	if _, err := reg.Add("champion", trainRec(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("challenger", trainRec(t, "smtp", "pop3"), nil); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(reg,
		ArmSpec{Name: "champion", Weight: wChamp},
		ArmSpec{Name: "challenger", Weight: wChal})
	if err != nil {
		t.Fatal(err)
	}
	return reg, rt
}

// TestRouteDeterministicAndProportional is the A/B assignment property test:
// over 1e5 random contexts, assignment must be (a) sticky — identical on
// every re-evaluation — and (b) weight-proportional within ±1%.
func TestRouteDeterministicAndProportional(t *testing.T) {
	_, rt := newTestRouter(t, 90, 10)
	defer rt.Close()

	const contexts = 100000
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, len(rt.Arms()))
	ctx := make(query.Seq, 0, 4)
	for i := 0; i < contexts; i++ {
		ctx = ctx[:0]
		for l := 1 + rng.Intn(4); l > 0; l-- {
			ctx = append(ctx, query.ID(rng.Intn(1<<20)))
		}
		arm := rt.Route(ctx)
		for rep := 0; rep < 3; rep++ {
			if rt.Route(ctx) != arm {
				t.Fatalf("assignment of %v is not sticky", ctx)
			}
		}
		counts[arm]++
	}
	champShare := float64(counts[0]) / contexts
	if champShare < 0.89 || champShare > 0.91 {
		t.Fatalf("champion share = %.4f, want 0.90 ± 0.01 (counts %v)", champShare, counts)
	}
}

// TestRouteEmptyAndSingleArm: empty contexts and single-arm routers always
// serve the champion.
func TestRouteEmptyAndSingleArm(t *testing.T) {
	reg := NewRegistry(64)
	if _, err := reg.Add("only", trainRec(t), nil); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(reg, ArmSpec{Name: "only", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := rt.Route(query.Seq{query.ID(i)}); got != 0 {
			t.Fatalf("single-arm route = %d", got)
		}
	}
	_, rt2 := newTestRouter(t, 1, 1)
	defer rt2.Close()
	if got := rt2.Route(nil); got != 0 {
		t.Fatalf("empty context routed to arm %d, want champion", got)
	}
}

// TestRouterRejectsIncompatibleArm: an arm whose dictionary does not extend
// the champion's must be rejected at construction.
func TestRouterRejectsIncompatibleArm(t *testing.T) {
	reg := NewRegistry(64)
	if _, err := reg.Add("champion", trainRec(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("permuted", permutedRec(t), nil); err != nil {
		t.Fatal(err)
	}
	_, err := NewRouter(reg,
		ArmSpec{Name: "champion", Weight: 1},
		ArmSpec{Name: "permuted", Weight: 1})
	var dictErr *ErrDictIncompatible
	if !errors.As(err, &dictErr) {
		t.Fatalf("err = %v, want ErrDictIncompatible", err)
	}
	if dictErr.OldHash == dictErr.NewHash {
		t.Fatal("error must carry distinct dictionary hashes")
	}
}

// TestSlotSwapDictCompat: a slot swap must reject dictionary permutations
// (ErrDictIncompatible with both hashes), accept ID-preserving extensions,
// and accept anything under force.
func TestSlotSwapDictCompat(t *testing.T) {
	reg := NewRegistry(64)
	slot, err := reg.Add("m", trainRec(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slot.Swap(permutedRec(t), false); err == nil {
		t.Fatal("permuted dictionary swap succeeded")
	} else {
		var dictErr *ErrDictIncompatible
		if !errors.As(err, &dictErr) || dictErr.Slot != "m" {
			t.Fatalf("err = %v", err)
		}
	}
	if slot.State().Gen != 1 {
		t.Fatalf("generation moved on rejected swap: %d", slot.State().Gen)
	}
	if gen, err := slot.Swap(trainRec(t, "smtp"), false); err != nil || gen != 2 {
		t.Fatalf("extension swap = (%d, %v)", gen, err)
	}
	if gen, err := slot.Swap(permutedRec(t), true); err != nil || gen != 3 {
		t.Fatalf("forced swap = (%d, %v)", gen, err)
	}
}

// TestConcurrentSwapAndRoute hammers routing + serving through the registry
// while another goroutine swaps the challenger slot, under -race: readers
// must always observe a consistent (model, generation) pair and routing must
// stay stable throughout.
func TestConcurrentSwapAndRoute(t *testing.T) {
	reg, rt := newTestRouter(t, 3, 1)
	defer rt.Close()
	chal := reg.Slot("challenger")

	ctxs := make([]query.Seq, 64)
	rng := rand.New(rand.NewSource(11))
	for i := range ctxs {
		ctxs[i] = query.Seq{query.ID(rng.Intn(1 << 16)), query.ID(rng.Intn(1 << 16))}
	}
	want := make([]int, len(ctxs))
	for i, ctx := range ctxs {
		want[i] = rt.Route(ctx)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (i + g) % len(ctxs)
				arm := rt.Route(ctxs[idx])
				if arm != want[idx] {
					t.Errorf("assignment changed under swaps: ctx %d -> arm %d, want %d", idx, arm, want[idx])
					return
				}
				slot := rt.Arm(arm).Slot()
				st := slot.State()
				reg.Cache().RecommendSlot(slot.ID(), st.Gen, st.Rec, ctxs[idx], 5)
				rt.RecordServe(arm, 1)
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		if _, err := chal.Swap(trainRec(t, "smtp", "pop3"), false); err != nil {
			t.Error(err)
			break
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := chal.State().Gen; got != 26 {
		t.Fatalf("challenger generation = %d, want 26", got)
	}
}

// TestShadowNeverBlocks: with no worker draining the queue, enqueueing far
// past the queue depth must return promptly (dropping and counting the
// overflow) instead of ever blocking the caller — the serving goroutine's
// latency guarantee.
func TestShadowNeverBlocks(t *testing.T) {
	reg := NewRegistry(64)
	slot, err := reg.Add("chal", trainRec(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built shadower with no worker goroutine: the queue can only fill.
	sh := &shadower{
		reg:   reg,
		slots: []*Slot{slot},
		jobs:  make(chan *shadowJob, shadowQueueDepth),
		div:   make([]shadowCounters, 1),
		done:  make(chan struct{}),
	}
	sh.pool.New = func() any { return &shadowJob{ctx: make(query.Seq, 0, 16)} }

	const extra = 50
	start := time.Now()
	for i := 0; i < shadowQueueDepth+extra; i++ {
		sh.enqueue(query.Seq{1, 2}, 5, nil)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("enqueue stalled for %s", took)
	}
	if got := sh.dropped.Load(); got != extra {
		t.Fatalf("dropped = %d, want %d", got, extra)
	}
}

// TestShadowDivergence runs real shadow scoring: a shadow slot holding the
// identical model must converge to zero top-1 mismatch and full rank
// overlap; a genuinely different model must register divergence.
func TestShadowDivergence(t *testing.T) {
	reg := NewRegistry(1 << 10)
	if _, err := reg.Add("champion", trainRec(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("twin", trainRec(t), nil); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(reg,
		ArmSpec{Name: "champion", Weight: 1},
		ArmSpec{Name: "twin", Weight: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.LiveArms() != 1 || len(rt.Arms()) != 2 || len(rt.ShadowSlots()) != 1 {
		t.Fatalf("live = %d, arms = %d, shadows = %d", rt.LiveArms(), len(rt.Arms()), len(rt.ShadowSlots()))
	}

	champ := rt.Arm(0).Slot()
	ctx := core.InternContext(champ.State().Rec.Dict(), []string{"o2"})
	const samples = 32
	for i := 0; i < samples; i++ {
		st := champ.State()
		recs := reg.Cache().RecommendSlot(champ.ID(), st.Gen, st.Rec, ctx, 5)
		rt.Shadow(ctx, 5, recs)
	}
	deadline := time.Now().Add(5 * time.Second)
	var stats []ShadowStats
	for {
		stats = rt.ShadowStats()
		if len(stats) == 1 && stats[0].Samples+stats[0].Dropped >= samples {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow worker processed %+v of %d samples", stats, samples)
		}
		time.Sleep(time.Millisecond)
	}
	if stats[0].Samples == 0 {
		t.Fatalf("all shadow samples dropped: %+v", stats[0])
	}
	if stats[0].Top1MismatchRate != 0 || stats[0].MeanRankOverlap != 1 {
		t.Fatalf("identical model diverged: %+v", stats[0])
	}
}

// TestRingDistributionAndStability: virtual nodes must split the keyspace
// near-evenly, lookups must be deterministic across independently built
// rings, and growing the ring by one shard must remap only a minority of
// contexts (the consistent-hashing property; modulo sharding remaps ~3/4).
func TestRingDistributionAndStability(t *testing.T) {
	const shards, probes = 3, 20000
	r := NewRing(shards, 0)
	r2 := NewRing(shards, 0)
	grown := NewRing(shards+1, 0)

	rng := rand.New(rand.NewSource(5))
	counts := make([]int, shards)
	moved := 0
	for i := 0; i < probes; i++ {
		h := rng.Uint64()
		s := r.Lookup(h)
		if s2 := r2.Lookup(h); s2 != s {
			t.Fatalf("independently built rings disagree: %d vs %d", s, s2)
		}
		counts[s]++
		if g := grown.Lookup(h); g != s {
			if g != shards {
				t.Fatalf("hash %x moved between surviving shards %d -> %d", h, s, g)
			}
			moved++
		}
	}
	for s, c := range counts {
		share := float64(c) / probes
		if share < 0.15 || share > 0.55 {
			t.Fatalf("shard %d owns %.3f of the keyspace (counts %v)", s, share, counts)
		}
	}
	movedShare := float64(moved) / probes
	if movedShare > 0.5 {
		t.Fatalf("adding one shard remapped %.3f of contexts", movedShare)
	}
	if moved == 0 {
		t.Fatal("adding one shard remapped nothing: ring is not hashing")
	}
}

// hashStringContext hashes a decoded context held as strings. No serving path
// holds one that way: it is the oracle the two ring-key hashes are held to.
func hashStringContext(context []string) uint64 {
	h := uint64(fnvOffset64)
	for _, q := range context {
		for i := 0; i < len(q); i++ {
			h ^= uint64(q[i])
			h *= fnvPrime64
		}
		h ^= 0xFF
		h *= fnvPrime64
	}
	return h
}

// TestHashRawMatchesStringContext: the GET path's hash of the query string
// must agree with the batch path's hash of the decoded strings, so one
// context always lands on one shard regardless of entry point or encoding —
// and a pair the shard's handler drops (an escape that does not decode, no
// q key) must not be hashed, or the context would be served by a
// different replica than the same context without the pair.
func TestHashRawMatchesStringContext(t *testing.T) {
	cases := []struct {
		raw string
		ctx []string
	}{
		{"q=nokia+n73", []string{"nokia n73"}},
		{"q=nokia%20n73", []string{"nokia n73"}},
		{"q=o2&q=o2+mobile&n=5", []string{"o2", "o2 mobile"}},
		{"n=3&q=a%2Bb", []string{"a+b"}},
		{"q=", []string{""}},
		{"q=%e4%b8%ad", []string{"中"}},
		{"q=X&q=%zz", []string{"X"}}, // dropped pairs
		{"q=X&q=%4", []string{"X"}},
		{"q=%&q=X", []string{"X"}},
		{"q=X&bogus", []string{"X"}},
		{"q=X&q=a;b", []string{"X", "a;b"}}, // a raw ';' is data
		{"q%zz=Y&q=X&&", []string{"X"}},
		{"q=100%", nil},
		{"%71=X", []string{"X"}}, // an escaped key is the key, as url.ParseQuery reads it
		{"q=" + strings.Repeat("0123456789abcdef", 9), []string{strings.Repeat("0123456789abcdef", 9)}}, // outgrows the stack buffer
	}
	for _, c := range cases {
		if got, want := hashQueryContext(c.raw), hashStringContext(c.ctx); got != want {
			t.Errorf("hash(%q) = %x, hash(%v) = %x", c.raw, got, c.ctx, want)
		}
		// The batch path, over the same strings as JSON, escaped and not.
		var body []byte
		var toks [][2]int
		for i, q := range c.ctx {
			lit, _ := json.Marshal(q)
			if i%2 == 1 {
				lit = []byte(strings.ReplaceAll(string(lit), "o", `\u006f`))
			}
			toks = append(toks, [2]int{len(body) + 1, len(body) + len(lit) - 1})
			body = append(body, lit...)
		}
		if got, want := hashBatchContext(body, toks), hashStringContext(c.ctx); got != want {
			t.Errorf("batch hash of %s = %x, hash(%v) = %x", body, got, c.ctx, want)
		}
	}
	// Boundary aliasing: ["ab"] vs ["a","b"] must differ.
	if hashStringContext([]string{"ab"}) == hashStringContext([]string{"a", "b"}) {
		t.Fatal("context boundary aliasing")
	}
}
