package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func TestDistBasics(t *testing.T) {
	d := NewDist()
	if d.Total() != 0 || d.Support() != 0 {
		t.Fatal("fresh dist not empty")
	}
	d.Add(1, 3)
	d.Add(2, 1)
	d.Add(1, 2)
	if d.Total() != 6 || d.Support() != 2 {
		t.Fatalf("total=%d support=%d", d.Total(), d.Support())
	}
	if d.Count(1) != 5 {
		t.Fatalf("Count(1) = %d", d.Count(1))
	}
	if p := d.P(1); math.Abs(p-5.0/6) > 1e-12 {
		t.Fatalf("P(1) = %v", p)
	}
	if p := d.P(99); p != 0 {
		t.Fatalf("P(absent) = %v", p)
	}
}

func TestDistPEmptyIsZero(t *testing.T) {
	if p := NewDist().P(1); p != 0 {
		t.Fatalf("P on empty = %v", p)
	}
}

func TestDistTopNRankingAndTieBreak(t *testing.T) {
	d := NewDist()
	d.Add(5, 10)
	d.Add(3, 10) // tie with 5: lower ID first
	d.Add(7, 30)
	d.Add(9, 1)
	top := d.TopN(3)
	if len(top) != 3 {
		t.Fatalf("TopN(3) returned %d", len(top))
	}
	if top[0].Query != 7 || top[1].Query != 3 || top[2].Query != 5 {
		t.Fatalf("order = %v", top)
	}
	if math.Abs(top[0].Score-30.0/51) > 1e-12 {
		t.Fatalf("score = %v", top[0].Score)
	}
	if got := d.TopN(0); got != nil {
		t.Fatalf("TopN(0) = %v", got)
	}
	if got := NewDist().TopN(5); got != nil {
		t.Fatalf("TopN on empty = %v", got)
	}
}

func TestSmoothedPReducesToMLEWhenFullyObserved(t *testing.T) {
	d := NewDist()
	d.Add(0, 3)
	d.Add(1, 7)
	// vocab = 2, both observed: no smoothing mass.
	if p := d.SmoothedP(0, 2); math.Abs(p-0.3) > 1e-12 {
		t.Fatalf("SmoothedP(0) = %v, want 0.3", p)
	}
}

func TestSmoothedPFloorsUnobserved(t *testing.T) {
	d := NewDist()
	d.Add(0, 10)
	vocab := 100
	pu := d.SmoothedP(42, vocab)
	if pu <= 0 {
		t.Fatal("unobserved query got zero probability")
	}
	// Unobserved floor is (1/V)/Z.
	z := 1 + float64(vocab-1)/float64(vocab)
	if math.Abs(pu-(1.0/float64(vocab))/z) > 1e-12 {
		t.Fatalf("floor = %v", pu)
	}
	if d.SmoothedP(0, vocab) <= pu {
		t.Fatal("observed query not above the floor")
	}
}

func TestSmoothedPSumsToOne(t *testing.T) {
	f := func(counts []uint8, vocabRaw uint8) bool {
		d := NewDist()
		for i, c := range counts {
			if i >= 20 {
				break
			}
			if c > 0 {
				d.Add(query.ID(i), uint64(c))
			}
		}
		if d.Total() == 0 {
			return true
		}
		// Every observed ID lies in [0, 20), so vocab >= 20 guarantees the
		// summation loop covers the whole support (SmoothedP assumes IDs are
		// dense below vocab; a smaller vocab would skip observed IDs when a
		// zero count leaves a hole in the ID range).
		vocab := 20 + int(vocabRaw%30)
		var sum float64
		for q := 0; q < vocab; q++ {
			sum += d.SmoothedP(query.ID(q), vocab)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyProperties(t *testing.T) {
	// Deterministic distribution: entropy 0.
	d := NewDist()
	d.Add(1, 100)
	if h := d.Entropy(); h != 0 {
		t.Fatalf("deterministic entropy = %v", h)
	}
	// Uniform over k outcomes: entropy log10(k), the maximum.
	u := NewDist()
	for q := query.ID(0); q < 10; q++ {
		u.Add(q, 7)
	}
	if h := u.Entropy(); math.Abs(h-1) > 1e-12 { // log10(10) = 1
		t.Fatalf("uniform entropy = %v, want 1", h)
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		d := NewDist()
		for i, c := range counts {
			if i >= 16 {
				break
			}
			if c > 0 {
				d.Add(query.ID(i), uint64(c))
			}
		}
		h := d.Entropy()
		if h < 0 {
			return false
		}
		if d.Support() > 0 {
			return h <= math.Log10(float64(d.Support()))+1e-9
		}
		return h == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistQueriesSorted(t *testing.T) {
	d := NewDist()
	for _, q := range []query.ID{9, 2, 5} {
		d.Add(q, 1)
	}
	got := d.Queries()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("Queries = %v", got)
	}
}

func TestKLSmoothedSelfIsZero(t *testing.T) {
	d := NewDist()
	d.Add(0, 4)
	d.Add(1, 6)
	if kl := klSmoothed(d, d, 100); math.Abs(kl) > 1e-12 {
		t.Fatalf("klSmoothed(d,d) = %v", kl)
	}
}

func TestKLSmoothedFiniteOnDisjointSupport(t *testing.T) {
	p := NewDist()
	p.Add(0, 5)
	q := NewDist()
	q.Add(1, 5)
	kl := klSmoothed(p, q, 50)
	if math.IsInf(kl, 0) || math.IsNaN(kl) {
		t.Fatalf("klSmoothed on disjoint support = %v, want finite", kl)
	}
	if kl <= 0 {
		t.Fatalf("klSmoothed on disjoint support = %v, want > 0", kl)
	}
}

func TestDistEntropyRepeatable(t *testing.T) {
	// Summed in map order, a distribution of hundreds of outcomes gave
	// other bits from call to call; summed in ranked order it gives one
	// pattern, frozen or not.
	d := NewDist()
	for q := query.ID(0); q < 600; q++ {
		d.Add(q*7919%1000, uint64(q%37)+1)
	}
	want := math.Float64bits(d.Entropy())
	for i := 0; i < 50; i++ {
		if i == 25 {
			d.Freeze()
		}
		if got := math.Float64bits(d.Entropy()); got != want {
			t.Fatalf("call %d: Entropy bits %x, first call %x", i+2, got, want)
		}
	}
}
