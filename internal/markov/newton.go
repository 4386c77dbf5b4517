package markov

import "math"

// mixObjective is the MVMM weight-learning objective of Eq. (9): maximise
//
//	F(σ) = Σ_T P(X_T) · log Σ_D N(d_TD; σ_D) · P̂_D(X_T)
//
// over the per-component Gaussian widths σ. pT holds the empirical sequence
// probabilities P(X_T); d[T][D] the edit distance between sequence T and
// component D's matched state; pD[T][D] the component's generative
// probability of the sequence.
//
// Every distance is a small integer (a suffix distance or a sequence
// length, at most maxD), so F and Grad evaluate Eq. (4) once per
// (component, distance) into a table: the same function of the same
// arguments, so every sum, and σ, keeps its bits.
type mixObjective struct {
	pT   []float64
	d    [][]int
	pD   [][]float64
	maxD int
}

const (
	sigmaMin = 0.05
	sigmaMax = 50.0
	probEps  = 1e-300
)

// gaussian evaluates the 1-D Gaussian density of Eq. (4).
func gaussian(d, sigma float64) float64 {
	return math.Exp(-d*d/(2*sigma*sigma)) / (sigma * math.Sqrt(2*math.Pi))
}

// Gaussian exposes the Eq. (4) mixture-weight density. The compiled serving
// model must reproduce the mixture's weights bit-for-bit, so it evaluates the
// exact same function rather than a reimplementation.
func Gaussian(d, sigma float64) float64 { return gaussian(d, sigma) }

// tables returns Eq. (4)'s density N(d; σ_k) and its relative slope
// ∂ln N/∂σ = d²/σ³ − 1/σ, each at [k*(maxD+1)+d].
func (o *mixObjective) tables(sigma []float64) (g, slope []float64) {
	w := o.maxD + 1
	g = make([]float64, len(sigma)*w)
	slope = make([]float64, len(sigma)*w)
	for k, sg := range sigma {
		for d := range w {
			dd := float64(d)
			g[k*w+d] = gaussian(dd, sg)
			slope[k*w+d] = dd*dd/(sg*sg*sg) - 1/sg
		}
	}
	return g, slope
}

// F evaluates the objective.
func (o *mixObjective) F(sigma []float64) float64 {
	gt, _ := o.tables(sigma)
	w := o.maxD + 1
	var f float64
	for t := range o.pT {
		var s float64
		for k := range sigma {
			s += gt[k*w+o.d[t][k]] * o.pD[t][k]
		}
		if s < probEps {
			s = probEps
		}
		f += o.pT[t] * math.Log10(s)
	}
	return f
}

// Grad evaluates ∂F/∂σ analytically:
// ∂g/∂σ = g·(d²/σ³ − 1/σ), so each term contributes
// p_T · g·P·(d²/σ³ − 1/σ) / S_T (up to the log10 constant, which scales the
// whole gradient uniformly and is therefore irrelevant to the optimum).
func (o *mixObjective) Grad(sigma []float64) []float64 {
	gt, slope := o.tables(sigma)
	w := o.maxD + 1
	g := make([]float64, len(sigma))
	terms := make([]float64, len(sigma))
	ln10 := math.Ln10
	for t := range o.pT {
		var s float64
		for k := range sigma {
			terms[k] = gt[k*w+o.d[t][k]] * o.pD[t][k]
			s += terms[k]
		}
		if s < probEps {
			s = probEps
		}
		for k := range sigma {
			g[k] += o.pT[t] * terms[k] * slope[k*w+o.d[t][k]] / (s * ln10)
		}
	}
	return g
}

// hessian approximates the Hessian of F via central differences of the
// analytic gradient. K is at most ~11 in practice, so the O(K²) cost is
// negligible next to computing pD.
func (o *mixObjective) hessian(sigma []float64) [][]float64 {
	k := len(sigma)
	h := make([][]float64, k)
	const eps = 1e-4
	for i := 0; i < k; i++ {
		sp := append([]float64(nil), sigma...)
		sm := append([]float64(nil), sigma...)
		sp[i] += eps
		sm[i] -= eps
		gp := o.Grad(sp)
		gm := o.Grad(sm)
		h[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			h[i][j] = (gp[j] - gm[j]) / (2 * eps)
		}
	}
	return h
}

// solveLinear solves H·x = b by Gaussian elimination with partial pivoting.
// It returns false when H is (numerically) singular.
func solveLinear(h [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append(append([]float64(nil), h[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		x[i] = a[i][n]
		for j := i + 1; j < n; j++ {
			x[i] -= a[i][j] * x[j]
		}
		x[i] /= a[i][i]
	}
	return x, true
}

func clampSigma(s []float64) {
	for i := range s {
		if s[i] < sigmaMin {
			s[i] = sigmaMin
		}
		if s[i] > sigmaMax {
			s[i] = sigmaMax
		}
		if math.IsNaN(s[i]) {
			s[i] = 1
		}
	}
}

// NewtonMaximize runs the Eq. (10) iteration σ ← σ − H⁻¹∇F with a
// backtracking line-search safeguard: when the Newton direction does not
// improve F (the objective is only locally well-behaved), it falls back to
// a damped gradient-ascent step. σ is kept in [sigmaMin, sigmaMax].
func (o *mixObjective) NewtonMaximize(init []float64, iters int) []float64 {
	sigma := append([]float64(nil), init...)
	clampSigma(sigma)
	f := o.F(sigma)
	for it := 0; it < iters; it++ {
		grad := o.Grad(sigma)
		var dir []float64
		if step, ok := solveLinear(o.hessian(sigma), grad); ok {
			// Newton step for maximisation: σ - H⁻¹∇ (H is negative
			// definite near the maximum, making -H⁻¹∇ an ascent direction).
			dir = make([]float64, len(step))
			for i := range step {
				dir[i] = -step[i]
			}
			// If the Newton direction is not an ascent direction, discard.
			var dot float64
			for i := range dir {
				dot += dir[i] * grad[i]
			}
			if dot <= 0 {
				dir = nil
			}
		}
		if dir == nil {
			dir = append([]float64(nil), grad...)
		}
		// Backtracking line search on F.
		improved := false
		stepSize := 1.0
		for ls := 0; ls < 20; ls++ {
			trial := make([]float64, len(sigma))
			for i := range sigma {
				trial[i] = sigma[i] + stepSize*dir[i]
			}
			clampSigma(trial)
			if ft := o.F(trial); ft > f+1e-15 {
				sigma, f = trial, ft
				improved = true
				break
			}
			stepSize /= 2
		}
		if !improved {
			break
		}
	}
	return sigma
}
