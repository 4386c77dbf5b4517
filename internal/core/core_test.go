package core

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/query"
)

// buildLog writes a tiny raw log with two machines and repeated refinement
// sessions, repeated often enough to survive the default reduction.
func buildLog(t testing.TB) string {
	t.Helper()
	var sb strings.Builder
	w := logfmt.NewWriter(&sb)
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	emit := func(machine string, start time.Time, queries ...string) {
		for i, q := range queries {
			err := w.Write(logfmt.Record{
				MachineID: machine,
				Query:     q,
				Time:      start.Add(time.Duration(i) * time.Minute),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// 20 repetitions across two machines, separated by > 30 min.
	for i := 0; i < 10; i++ {
		at := base.Add(time.Duration(i) * time.Hour)
		emit("m1", at, "nokia n73", "nokia n73 themes")
		emit("m2", at.Add(10*time.Minute), "nokia n73", "nokia n73 themes")
	}
	for i := 0; i < 8; i++ {
		at := base.Add(time.Duration(i)*time.Hour + 30*time.Minute)
		emit("m1", at, "kidney stones", "kidney stone symptoms")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 100
	cfg.Mixture.NewtonIters = 5
	return cfg
}

func TestTrainFromLogAndRecommend(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := Recommend(rec, []string{"nokia n73"}, 5)
	if len(got) == 0 {
		t.Fatal("no recommendations")
	}
	if got[0].Query != "nokia n73 themes" {
		t.Fatalf("top recommendation = %q, want %q", got[0].Query, "nokia n73 themes")
	}
	if got[0].Score <= 0 {
		t.Fatalf("score = %v", got[0].Score)
	}
}

func TestRecommendEmptyOrUnknownContext(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := Recommend(rec, nil, 5); got != nil {
		t.Fatalf("empty context recommended %v", got)
	}
	if got := Recommend(rec, []string{"completely unknown query"}, 5); got != nil {
		t.Fatalf("unknown context recommended %v", got)
	}
}

func TestReductionThresholdDropsRareSessions(t *testing.T) {
	cfg := smallConfig()
	cfg.ReductionThreshold = 100 // everything is rare at this threshold
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := Recommend(rec, []string{"nokia n73"}, 5); got != nil {
		t.Fatalf("recommendations survived full reduction: %v", got)
	}
	if rec.Stats().Sessions != 0 {
		t.Fatalf("stats sessions = %d after full reduction", rec.Stats().Sessions)
	}
}

func TestProbability(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := rec.Probability([]string{"nokia n73"}, "nokia n73 themes")
	if p <= 0.5 {
		t.Fatalf("P(themes | n73) = %v, want dominant", p)
	}
	if q := rec.Probability([]string{"nokia n73"}, "never seen"); q != 0 {
		t.Fatalf("unknown target probability = %v", q)
	}
}

// TestTrainRefusesTooManyEpsilons: a mixture of more than 64 components does
// not fit the compiled model's presence mask, so training fails with an
// error naming the limit and yields no engine.
func TestTrainRefusesTooManyEpsilons(t *testing.T) {
	d := query.NewDict()
	a, b := d.Intern("smtp"), d.Intern("pop3")
	sessions := make([]query.Seq, 10)
	for i := range sessions {
		sessions[i] = query.Seq{a, b}
	}
	cfg := smallConfig()
	cfg.Epsilons = make([]float64, 65)
	for i := range cfg.Epsilons {
		cfg.Epsilons[i] = float64(i) * 0.01
	}
	rec, err := TrainFromSessions(d, sessions, cfg)
	if err == nil || rec != nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("65 ε values: engine %v, err = %v; want no engine and the 64-component limit named", rec, err)
	}
}

func TestTrainFromSessionsDirect(t *testing.T) {
	d := query.NewDict()
	a, b := d.Intern("smtp"), d.Intern("pop3")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b})
	}
	rec, err := TrainFromSessions(d, sessions, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := Recommend(rec, []string{"smtp"}, 1)
	if len(got) != 1 || got[0].Query != "pop3" {
		t.Fatalf("Recommend = %v", got)
	}
	if rec.Stats().Sessions != 10 {
		t.Fatalf("Sessions = %d, want 10", rec.Stats().Sessions)
	}
	if rec.Dict() != d {
		t.Fatal("Dict accessor broken")
	}
	if rec.Model() == nil {
		t.Fatal("Model accessor broken")
	}
}

func TestInternAndRecommendIDsEquivalence(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	context := []string{"unknown filler", "nokia n73"}
	ctx := InternContext(rec.Dict(), context)
	if len(ctx) != 1 {
		t.Fatalf("InternContext kept %d IDs, want 1 (unknowns dropped)", len(ctx))
	}
	if got := AppendContext(rec.Dict(), nil, context); !got.Equal(ctx) {
		t.Fatalf("AppendContext = %v, InternContext = %v", got, ctx)
	}
	// Appending into a pre-sized buffer must reuse it.
	buf := make(query.Seq, 0, 8)
	if got := AppendContext(rec.Dict(), buf, context); &got[0] != &buf[:1][0] {
		t.Fatal("AppendContext reallocated despite spare capacity")
	}
	want := Recommend(rec, context, 5)
	got := RecommendIDs(rec, ctx, 5)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("RecommendIDs returned %d suggestions, Recommend %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("suggestion %d: RecommendIDs %+v vs Recommend %+v", i, got[i], want[i])
		}
	}
	if got := RecommendIDs(rec, nil, 5); got != nil {
		t.Fatalf("empty interned context recommended %v", got)
	}
}

func TestCompiledMatchesInterpretedThroughCore(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctxs := range [][]string{
		{"nokia n73"}, {"kidney stones"},
		{"nokia n73", "nokia n73 themes"}, {"unknown", "nokia n73"},
	} {
		a := Recommend(rec, ctxs, 5)
		b := appendResolved(nil, rec.strs, rec.Model().Predict(InternContext(rec.Dict(), ctxs), 5))
		if len(a) != len(b) {
			t.Fatalf("ctx %v: compiled %d vs interpreted %d suggestions (%v vs %v)", ctxs, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i].Query != b[i].Query {
				t.Fatalf("ctx %v rank %d: compiled %q vs interpreted %q", ctxs, i, a[i].Query, b[i].Query)
			}
		}
	}
}

func TestAppendSuggestionsReusesBuffer(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := InternContext(rec.Dict(), []string{"nokia n73"})
	want := RecommendIDs(rec, ctx, 5)
	if len(want) == 0 {
		t.Fatal("no suggestions")
	}
	buf := make([]Suggestion, 0, 8)
	got := rec.AppendSuggestions(buf[:0], ctx, 5)
	if len(got) != len(want) {
		t.Fatalf("AppendSuggestions returned %d, RecommendIDs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("suggestion %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendSuggestions reallocated despite spare capacity")
	}
}

func TestRecommendConcurrentReaders(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := Recommend(rec, []string{"nokia n73"}, 5)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := Recommend(rec, []string{"nokia n73"}, 5)
				if len(got) != len(want) || got[0].Query != want[0].Query {
					panic("concurrent recommendation diverged")
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecommendBatchIDsMatchesSingle: the batched core API must agree with
// per-context RecommendIDs, including nil results for uncovered contexts,
// and AppendBatchSuggestions, compiled and interpreted, with per-context
// AppendSuggestions: runs appended after what dst held, ends absolute.
func TestRecommendBatchIDsMatchesSingle(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctxs := []query.Seq{
		InternContext(rec.Dict(), []string{"nokia n73"}),
		InternContext(rec.Dict(), []string{"kidney stones"}),
		nil, // empty context
		InternContext(rec.Dict(), []string{"nokia n73", "nokia n73 themes"}),
	}
	ns := []int{5, 3, 5, 1}
	got := rec.RecommendBatchIDs(ctxs, ns)
	if len(got) != len(ctxs) {
		t.Fatalf("batch returned %d results for %d contexts", len(got), len(ctxs))
	}
	for i := range ctxs {
		want := RecommendIDs(rec, ctxs[i], ns[i])
		if len(got[i]) != len(want) {
			t.Fatalf("ctx %d: batch %d suggestions, single %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("ctx %d rank %d: batch %+v, single %+v", i, j, got[i][j], want[j])
			}
		}
	}

	prefix := []Suggestion{{Query: "kept", Score: 1}}
	recs, ends := rec.AppendBatchSuggestions(prefix, []int{-1}, ctxs, ns)
	if recs[0] != prefix[0] || len(ends) != 1+len(ctxs) || ends[0] != -1 {
		t.Fatalf("dst or ends not appended to: %+v, %v", recs[0], ends)
	}
	lo := len(prefix)
	for i, ctx := range ctxs {
		want := rec.AppendSuggestions(nil, ctx, ns[i])
		if run := recs[lo:ends[1+i]]; !slices.Equal(run, want) {
			t.Fatalf("ctx %d: batch run %+v, single %+v", i, run, want)
		}
		lo = ends[1+i]
	}
	if lo != len(recs) {
		t.Fatalf("runs end at %d of %d suggestions", lo, len(recs))
	}
}
