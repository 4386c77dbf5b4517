package markov

import (
	"math"
	"math/rand"
	"testing"
)

// oracleF and oracleGrad are F and Grad as they were before Eq. (4) was
// tabulated: one direct gaussian call per (sequence, component). They are
// the differential oracle for the tables' bits.
func oracleF(o *mixObjective, sigma []float64) float64 {
	var f float64
	for t := range o.pT {
		var s float64
		for k, sg := range sigma {
			s += gaussian(float64(o.d[t][k]), sg) * o.pD[t][k]
		}
		if s < probEps {
			s = probEps
		}
		f += o.pT[t] * math.Log10(s)
	}
	return f
}

func oracleGrad(o *mixObjective, sigma []float64) []float64 {
	g := make([]float64, len(sigma))
	ln10 := math.Ln10
	for t := range o.pT {
		var s float64
		terms := make([]float64, len(sigma))
		for k, sg := range sigma {
			terms[k] = gaussian(float64(o.d[t][k]), sg) * o.pD[t][k]
			s += terms[k]
		}
		if s < probEps {
			s = probEps
		}
		for k, sg := range sigma {
			dd := float64(o.d[t][k])
			g[k] += o.pT[t] * terms[k] * (dd*dd/(sg*sg*sg) - 1/sg) / (s * ln10)
		}
	}
	return g
}

// TestTabulatedObjectiveBits holds F and Grad to the direct evaluation bit
// for bit on random objectives: K in 1..11, distances in 0..8, generative
// probabilities spanning many decades (some below probEps's clamp), and σ
// both at the bounds and in between.
func TestTabulatedObjectiveBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(11)
		n := 1 + rng.Intn(40)
		pT := make([]float64, n)
		d := make([][]int, n)
		pD := make([][]float64, n)
		for i := range pT {
			pT[i] = rng.Float64()
			d[i] = make([]int, k)
			pD[i] = make([]float64, k)
			for j := 0; j < k; j++ {
				d[i][j] = rng.Intn(9)
				pD[i][j] = math.Pow(10, -rng.Float64()*320)
			}
		}
		obj := &mixObjective{pT: pT, d: d, pD: pD, maxD: 8}
		sigma := make([]float64, k)
		for j := range sigma {
			switch rng.Intn(4) {
			case 0:
				sigma[j] = sigmaMin
			case 1:
				sigma[j] = sigmaMax
			default:
				sigma[j] = sigmaMin + rng.Float64()*5
			}
		}
		if got, want := obj.F(sigma), oracleF(obj, sigma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: F = %x, direct %x", trial, got, want)
		}
		got, want := obj.Grad(sigma), oracleGrad(obj, sigma)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: Grad[%d] = %x, direct %x", trial, j, got[j], want[j])
			}
		}
	}
}
