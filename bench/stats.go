package main

import (
	"cmp"
	"math"
	"slices"
)

// fastRank is the rank (1-based, from the fastest) of the lap the throughput
// figure is read from. A lap replays a fixed request sequence, so anything
// else running on a shared host can only add time to it: the fast tail of
// the lap distribution is the code's own cost and repeats from run to run
// where the median does not. Rank 11 leaves ten samples beyond it, so one
// freak reading cannot set the figure.
const fastRank = 11

// minLaps is the fewest laps a run may time; below it rank 11 reaches too
// far into the distribution to be called its fast tail.
const minLaps = 400

// sortedCopy returns d in ascending order without disturbing d.
func sortedCopy[T cmp.Ordered](d []T) []T {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// fastOf is the fastRank-th smallest of an ascending sample, or for short
// samples (traced laps, probe passes) the value at the same 1.1 % quantile,
// at least the second smallest.
func fastOf[T any](sorted []T) T {
	if len(sorted) >= minLaps {
		return sorted[fastRank-1]
	}
	rank := int(math.Ceil(float64(len(sorted)) * fastRank / 1000))
	if rank < 2 {
		rank = 2
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quantileCeil is the ceiling-rank quantile of an ascending sample: the
// smallest value with at least a share q of the sample at or below it.
func quantileCeil[T any](sorted []T, q float64) T {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(v, n=4) uses, which is what the driver
// computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}
