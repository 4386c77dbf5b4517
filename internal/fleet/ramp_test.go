package fleet

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
)

// routeShares routes n random contexts and returns the fraction landing on
// each arm index.
func routeShares(rt *Router, n int) []float64 {
	rng := rand.New(rand.NewSource(11))
	counts := make([]int, len(rt.Arms()))
	ctx := make(query.Seq, 0, 4)
	for i := 0; i < n; i++ {
		ctx = ctx[:0]
		for l := 1 + rng.Intn(4); l > 0; l-- {
			ctx = append(ctx, query.ID(rng.Intn(1<<20)))
		}
		counts[rt.Route(ctx)]++
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / float64(n)
	}
	return out
}

func TestSetWeightRedistributesTraffic(t *testing.T) {
	_, rt := newTestRouter(t, 3, 1)
	defer rt.Close()

	if s := routeShares(rt, 40000); s[0] < 0.73 || s[0] > 0.77 {
		t.Fatalf("initial champion share = %.3f, want ~0.75", s[0])
	}
	if err := rt.SetWeight("challenger", 3); err != nil {
		t.Fatal(err)
	}
	if s := routeShares(rt, 40000); s[0] < 0.47 || s[0] > 0.53 {
		t.Fatalf("post-SetWeight champion share = %.3f, want ~0.50", s[0])
	}
	// Weight changes must not break stickiness under a fixed vector.
	ctx := query.Seq{42, 7}
	arm := rt.Route(ctx)
	for i := 0; i < 10; i++ {
		if rt.Route(ctx) != arm {
			t.Fatal("assignment not sticky after SetWeight")
		}
	}

	if err := rt.SetWeight("nope", 1); err == nil {
		t.Fatal("SetWeight accepted unknown arm")
	}
	if err := rt.SetWeight("champion", 0); err != nil {
		t.Fatalf("zeroing champion with live challenger: %v", err)
	}
	if err := rt.SetWeight("challenger", 0); err == nil {
		t.Fatal("SetWeight accepted zero total weight")
	}
	// The refused change must leave the previous table serving.
	if rt.LiveArms() != 1 || rt.Arm(1).Weight() != 3 {
		t.Fatalf("refused change mutated state: live=%d w=%d", rt.LiveArms(), rt.Arm(1).Weight())
	}
}

func TestSetWeightActivatesDeclaredShadowArm(t *testing.T) {
	_, rt := newTestRouter(t, 1, 0)
	defer rt.Close()

	if rt.LiveArms() != 1 || len(rt.ShadowSlots()) != 1 {
		t.Fatalf("live=%d shadows=%d, want 1/1", rt.LiveArms(), len(rt.ShadowSlots()))
	}
	if s := routeShares(rt, 5000); s[1] != 0 {
		t.Fatalf("weight-0 arm received traffic: %v", s)
	}
	if err := rt.SetWeight("challenger", 1); err != nil {
		t.Fatal(err)
	}
	if s := routeShares(rt, 40000); s[1] < 0.45 || s[1] > 0.55 {
		t.Fatalf("activated shadow arm share = %.3f, want ~0.5", s[1])
	}
	// Ramping does not remove the arm from the shadow scorer.
	if len(rt.ShadowSlots()) != 1 {
		t.Fatal("activated arm dropped from shadow scoring")
	}
}

// rampHarness wires a router with a weight-0 challenger, a ramp with a stub
// stats feed and its own registry and tracer, and a synthetic clock.
type rampHarness struct {
	reg    *Registry
	rt     *Router
	ramp   *Ramp
	obs    *obs.Registry
	tracer *obs.Tracer
	stats  ShadowStats
	ok     bool
	now    time.Time
}

func newRampHarness(t *testing.T, pol RampPolicy) *rampHarness {
	t.Helper()
	reg, rt := newTestRouter(t, 100, 0)
	t.Cleanup(rt.Close)
	oreg, tracer := obs.NewRegistry(), obs.NewTracer(16, nil)
	ramp, err := NewRamp(rt, "challenger", pol, oreg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	h := &rampHarness{reg: reg, rt: rt, ramp: ramp, obs: oreg, tracer: tracer, now: time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)}
	ramp.statsFn = func(string) (ShadowStats, bool) { return h.stats, h.ok }
	return h
}

func (h *rampHarness) tick(d time.Duration) RampStatus {
	h.now = h.now.Add(d)
	return h.ramp.Tick(h.now)
}

// push lands a new challenger generation, as an ingestion reload would.
func (h *rampHarness) push(t *testing.T) {
	t.Helper()
	h.swap(t, trainRec(t, "smtp", "pop3"), false)
}

func (h *rampHarness) swap(t *testing.T, rec core.Recommender, force bool) {
	t.Helper()
	if _, err := h.rt.Arm(1).Slot().Swap(rec, force); err != nil {
		t.Fatal(err)
	}
}

// counter reads one of the ramp's transition counters.
func (h *rampHarness) counter(name string) uint64 { return h.obs.Counter(name).Value() }

func TestRampWalksScheduleAndPromotes(t *testing.T) {
	pol := RampPolicy{
		Steps: []uint32{1, 10}, Hold: 10 * time.Second, MinSamples: 5,
		Promote: true,
	}
	h := newRampHarness(t, pol)

	// Idle until a generation lands: many ticks change nothing.
	for i := 0; i < 3; i++ {
		if st := h.tick(time.Minute); st.Armed || st.Weight != 0 {
			t.Fatalf("ramp moved before any push: %+v", st)
		}
	}

	h.push(t)
	if st := h.tick(time.Second); !st.Armed || st.Step != -1 || st.Weight != 0 {
		t.Fatalf("after push: %+v", st)
	}

	// Too few shadow samples: stays shadow-only.
	h.ok, h.stats = true, ShadowStats{Samples: 3, Coverage: 1, MeanRankOverlap: 1}
	if st := h.tick(time.Second); st.Step != -1 {
		t.Fatalf("ramped on %d samples: %+v", h.stats.Samples, st)
	}

	// Healthy stats: first step.
	h.stats = ShadowStats{Samples: 20, Coverage: 1, MeanRankOverlap: 0.9, Top1MismatchRate: 0.1}
	if st := h.tick(time.Second); st.Step != 0 || st.Weight != 1 {
		t.Fatalf("first step: %+v", st)
	}
	// Hold not elapsed: no advance.
	if st := h.tick(5 * time.Second); st.Step != 0 {
		t.Fatalf("advanced before hold: %+v", st)
	}
	// Hold elapsed: second step.
	if st := h.tick(6 * time.Second); st.Step != 1 || st.Weight != 10 {
		t.Fatalf("second step: %+v", st)
	}

	baseBefore := h.rt.BaseDictHash()
	champGenBefore := h.rt.Arm(0).Slot().State().Gen
	if st := h.tick(11 * time.Second); st.Promotions != 1 || st.Armed || st.Weight != 0 {
		t.Fatalf("promotion: %+v", st)
	}
	if gen := h.rt.Arm(0).Slot().State().Gen; gen != champGenBefore+1 {
		t.Fatalf("champion gen = %d, want %d", gen, champGenBefore+1)
	}
	if h.rt.BaseDictHash() == baseBefore {
		t.Fatal("interning base did not advance on promotion")
	}
	// Challenger vocabulary is now servable through the champion.
	if _, ok := h.rt.Arm(0).Slot().State().Rec.Dict().Lookup("smtp"); !ok {
		t.Fatal("promoted champion lacks challenger vocabulary")
	}
	// Back to idle: nothing moves without a fresh push.
	if st := h.tick(time.Hour); st.Armed || st.Weight != 0 {
		t.Fatalf("ramp restarted without a push: %+v", st)
	}

	// Every transition is counted in the registry and retained as a forced
	// trace, oldest last: start, two advances, the promotion.
	if n := h.counter("ramp_steps_total"); n != 2 {
		t.Fatalf("ramp_steps_total = %d, want 2", n)
	}
	if n := h.counter("ramp_promotions_total"); n != 1 {
		t.Fatalf("ramp_promotions_total = %d, want 1", n)
	}
	if n := h.counter("ramp_freezes_total"); n != 0 {
		t.Fatalf("ramp_freezes_total = %d, want 0", n)
	}
	var got []string
	for _, v := range h.tracer.Snapshot(0, false, 0) {
		if len(v.Spans) != 1 || v.Spans[0].Name != "ramp" {
			t.Fatalf("ramp trace spans = %+v, want one \"ramp\" event", v.Spans)
		}
		got = append(got, v.Spans[0].Outcome)
	}
	if want := []string{"promote", "advance", "advance", "start"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("ramp traces, newest first = %q, want %q", got, want)
	}
}

// TestRampFreezesOnFailedPromotion lands a challenger whose dictionary is
// not an extension of the champion's (forced in, as an operator's
// ?force=1 reload would): the ramp walks it, the promotion is refused, and
// the ramp freezes at weight zero until the next generation clears it.
func TestRampFreezesOnFailedPromotion(t *testing.T) {
	pol := RampPolicy{Steps: []uint32{5}, Hold: time.Second, MinSamples: 5, Promote: true}
	h := newRampHarness(t, pol)
	h.swap(t, permutedRec(t), true)
	h.tick(time.Second)

	h.ok, h.stats = true, ShadowStats{Samples: 50, Coverage: 1, MeanRankOverlap: 1}
	if st := h.tick(time.Second); st.Step != 0 || st.Weight != 5 {
		t.Fatalf("first step: %+v", st)
	}
	champGen := h.rt.Arm(0).Slot().State().Gen
	st := h.tick(time.Second)
	if !st.Frozen || st.Weight != 0 || st.Promotions != 0 || !strings.Contains(st.Reason, "promote failed") {
		t.Fatalf("no freeze on a refused promotion: %+v", st)
	}
	if gen := h.rt.Arm(0).Slot().State().Gen; gen != champGen {
		t.Fatalf("champion generation moved %d -> %d on a refused promotion", champGen, gen)
	}
	if n := h.counter("ramp_freezes_total"); n != 1 {
		t.Fatalf("ramp_freezes_total = %d, want 1", n)
	}
	// Frozen means frozen: healthy stats and elapsed holds do not resume.
	if st := h.tick(time.Hour); !st.Frozen || st.Weight != 0 || st.Step != -1 {
		t.Fatalf("frozen ramp resumed by itself: %+v", st)
	}

	// A new generation is a fresh verdict: the freeze clears and a
	// compatible challenger (forced back over the permuted one) walks and
	// promotes.
	h.swap(t, trainRec(t, "smtp", "pop3"), true)
	if st := h.tick(time.Second); st.Frozen || !st.Armed || st.Reason != "" {
		t.Fatalf("new generation did not clear freeze: %+v", st)
	}
	if st := h.tick(time.Second); st.Step != 0 || st.Weight != 5 {
		t.Fatalf("first step after the freeze: %+v", st)
	}
	if st := h.tick(time.Second); st.Promotions != 1 || st.Frozen || st.Weight != 0 {
		t.Fatalf("promotion after the freeze: %+v", st)
	}
}

func TestRampPolicyValidation(t *testing.T) {
	_, rt := newTestRouter(t, 1, 0)
	defer rt.Close()
	oreg, tracer := obs.NewRegistry(), obs.NewTracer(16, nil)
	if _, err := NewRamp(rt, "challenger", RampPolicy{}, oreg, tracer); err == nil {
		t.Fatal("accepted empty schedule")
	}
	if _, err := NewRamp(rt, "challenger", RampPolicy{Steps: []uint32{5, 1}}, oreg, tracer); err == nil {
		t.Fatal("accepted decreasing schedule")
	}
	if _, err := NewRamp(rt, "challenger", RampPolicy{Steps: []uint32{0}}, oreg, tracer); err == nil {
		t.Fatal("accepted zero step")
	}
	if _, err := NewRamp(rt, "champion", RampPolicy{Steps: []uint32{1}}, oreg, tracer); err == nil {
		t.Fatal("accepted champion as ramp target")
	}
	if _, err := NewRamp(rt, "ghost", RampPolicy{Steps: []uint32{1}}, oreg, tracer); err == nil {
		t.Fatal("accepted unknown arm")
	}
}
