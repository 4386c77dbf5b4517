package markov

import (
	"math"
	"testing"

	"repro/internal/query"
)

func mvmmSessions() []query.Session {
	return []query.Session{
		{Queries: query.Seq{1, 2, 3}, Count: 30},
		{Queries: query.Seq{4, 2, 5}, Count: 30},
		{Queries: query.Seq{2, 3}, Count: 15},
		{Queries: query.Seq{1, 2, 3, 6}, Count: 8},
		{Queries: query.Seq{7, 8}, Count: 12},
	}
}

func newTestMVMM(t *testing.T) *MVMM {
	t.Helper()
	return NewMVMM(mvmmSessions(), []float64{0.0, 0.05, 0.1}, 10,
		MVMMOptions{TrainSample: 100, NewtonIters: 10})
}

func TestMVMMPredictRanksByMixture(t *testing.T) {
	m := newTestMVMM(t)
	top := m.Predict(query.Seq{1, 2}, 3)
	if len(top) == 0 {
		t.Fatal("no predictions")
	}
	if top[0].Query != 3 {
		t.Fatalf("top prediction = %v, want 3", top[0])
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatalf("predictions not sorted: %v", top)
		}
	}
}

func TestMVMMAdaptsToContext(t *testing.T) {
	m := newTestMVMM(t)
	if top := m.Predict(query.Seq{4, 2}, 1); len(top) != 1 || top[0].Query != 5 {
		t.Fatalf("Predict([4,2]) = %v, want 5", top)
	}
	if top := m.Predict(query.Seq{1, 2}, 1); len(top) != 1 || top[0].Query != 3 {
		t.Fatalf("Predict([1,2]) = %v, want 3", top)
	}
}

func TestMVMMCoverageEqualsComponents(t *testing.T) {
	m := newTestMVMM(t)
	contexts := []query.Seq{{2}, {9, 2}, {3}, {99}, nil}
	for _, ctx := range contexts {
		compCovers := false
		for _, c := range m.Components() {
			if c.Covers(ctx) {
				compCovers = true
			}
		}
		if m.Covers(ctx) != compCovers {
			t.Fatalf("coverage mismatch on %v: mixture=%v components=%v", ctx, m.Covers(ctx), compCovers)
		}
	}
}

func TestMVMMProbIsConvexCombination(t *testing.T) {
	m := newTestMVMM(t)
	ctx := query.Seq{1, 2}
	q := query.ID(3)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.Components() {
		p := c.ProbEscape(ctx, q)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	got := m.Prob(ctx, q)
	if got < lo-1e-12 || got > hi+1e-12 {
		t.Fatalf("mixture prob %v outside component range [%v, %v]", got, lo, hi)
	}
}

func TestMVMMWeightsNormalised(t *testing.T) {
	m := newTestMVMM(t)
	w := m.weights(query.Seq{1, 2})
	var sum float64
	for _, x := range w {
		if x < 0 {
			t.Fatalf("negative weight: %v", w)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Uncoverable context: all weights zero.
	w0 := m.weights(query.Seq{99})
	for _, x := range w0 {
		if x != 0 {
			t.Fatalf("uncovered context got weight %v", x)
		}
	}
}

func TestMVMMSigmasLearnedAndPositive(t *testing.T) {
	m := newTestMVMM(t)
	sig := m.Sigmas()
	if len(sig) != 3 {
		t.Fatalf("sigmas = %v", sig)
	}
	for _, s := range sig {
		if s < sigmaMin || s > sigmaMax {
			t.Fatalf("sigma %v outside [%v, %v]", s, sigmaMin, sigmaMax)
		}
	}
}

func TestMVMMUnionNodesAtMostSum(t *testing.T) {
	m := newTestMVMM(t)
	sum := 0
	maxNodes := 0
	for _, c := range m.Components() {
		sum += c.NumNodes()
		if c.NumNodes() > maxNodes {
			maxNodes = c.NumNodes()
		}
	}
	u := m.UnionNodes()
	if u > sum || u < maxNodes {
		t.Fatalf("union nodes %d outside [max=%d, sum=%d]", u, maxNodes, sum)
	}
	// Components are nested by ε, so the union equals the largest (ε=0).
	if u != maxNodes {
		t.Fatalf("union = %d, want %d (the ε=0 full tree)", u, maxNodes)
	}
}

func TestMVMMEmptyContext(t *testing.T) {
	m := newTestMVMM(t)
	if m.Predict(nil, 5) != nil {
		t.Fatal("empty context produced predictions")
	}
	if m.Covers(nil) {
		t.Fatal("empty context covered")
	}
}

func TestDefaultEpsilons(t *testing.T) {
	eps := DefaultEpsilons()
	if len(eps) != 11 {
		t.Fatalf("len = %d, want 11", len(eps))
	}
	if eps[0] != 0 || math.Abs(eps[10]-0.1) > 1e-12 {
		t.Fatalf("range = [%v, %v], want [0, 0.1]", eps[0], eps[10])
	}
}

func TestGaussianDensity(t *testing.T) {
	// Peak at d=0 is 1/(σ√2π).
	if g := gaussian(0, 1); math.Abs(g-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("gaussian(0,1) = %v", g)
	}
	// Monotone decreasing in |d|.
	if gaussian(1, 1) <= gaussian(2, 1) {
		t.Fatal("gaussian not decreasing in distance")
	}
	// Wider σ is flatter at the peak.
	if gaussian(0, 2) >= gaussian(0, 1) {
		t.Fatal("gaussian peak not decreasing in sigma")
	}
}

func TestNewtonMaximizeImprovesObjective(t *testing.T) {
	// Two components: sequences at distance 0 favour component 0 with
	// small σ; sequences at distance 2 favour component 1 with larger σ.
	obj := &mixObjective{
		pT:   []float64{0.5, 0.5},
		d:    [][]int{{0, 0}, {2, 2}},
		maxD: 2,
		pD:   [][]float64{{0.9, 0.1}, {0.1, 0.9}},
	}
	init := []float64{1, 1}
	f0 := obj.F(init)
	sol := obj.NewtonMaximize(init, 30)
	if f1 := obj.F(sol); f1 < f0-1e-12 {
		t.Fatalf("Newton worsened objective: %v -> %v", f0, f1)
	}
	for _, s := range sol {
		if s < sigmaMin || s > sigmaMax {
			t.Fatalf("sigma escaped bounds: %v", sol)
		}
	}
}

func TestNewtonGradientMatchesNumeric(t *testing.T) {
	obj := &mixObjective{
		pT:   []float64{0.3, 0.7},
		d:    [][]int{{0, 1}, {2, 0}},
		maxD: 2,
		pD:   [][]float64{{0.5, 0.2}, {0.1, 0.8}},
	}
	sigma := []float64{0.8, 1.7}
	grad := obj.Grad(sigma)
	const eps = 1e-6
	for i := range sigma {
		sp := append([]float64(nil), sigma...)
		sm := append([]float64(nil), sigma...)
		sp[i] += eps
		sm[i] -= eps
		num := (obj.F(sp) - obj.F(sm)) / (2 * eps)
		if math.Abs(num-grad[i]) > 1e-5 {
			t.Fatalf("gradient[%d] = %v, numeric %v", i, grad[i], num)
		}
	}
}

func TestSolveLinear(t *testing.T) {
	h := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, ok := solveLinear(h, b)
	if !ok {
		t.Fatal("solver reported singular")
	}
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
	if _, ok := solveLinear([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); ok {
		t.Fatal("singular system not detected")
	}
}
