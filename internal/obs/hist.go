// Package obs is the serving-grade observability layer: lock-free log-linear
// latency histograms with bounded-error quantiles, pooled zero-allocation
// request traces with tail-sampled retention, and a Prometheus text
// exposition over both. Every primitive is safe for concurrent use from the
// serving hot path and allocates nothing per operation after warm-up.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout. Values below subCount land in a direct region of
// one bucket per value (exact). Above that, each power-of-two range
// [2^e, 2^(e+1)) is split into subCount equal sub-buckets, so a recorded
// value is attributed to a bucket whose width is at most value/subCount:
// quantiles read from bucket upper bounds over-report by at most
// 1/subCount = 3.125% and never under-report.
const (
	// subBits is log2 of the number of sub-buckets per power-of-two range.
	subBits = 5
	// subCount is the number of sub-buckets per power-of-two range (and the
	// width of the exact direct region for small values).
	subCount = 1 << subBits
	// maxExp is the largest power-of-two exponent a non-negative int64 value
	// can occupy (bits.Len64 of math.MaxInt64 is 63, so the top exponent
	// is 62).
	maxExp = 62
	// numBuckets is the total bucket count: the direct region plus one
	// subCount-wide block per exponent in [subBits, maxExp].
	numBuckets = (maxExp-subBits+1)*subCount + subCount
)

// Histogram is a fixed-size, lock-free log-linear histogram of non-negative
// int64 samples (the codebase records microseconds). Recording is two atomic
// adds, the sample's bucket and the sum, and a load of the maximum — no locks,
// no allocation — and histograms with the same layout merge by bucket-wise
// addition, which makes per-shard and per-arm instances aggregable. The
// sample count is not stored: it is the sum of the buckets, so a count and
// the buckets it is read beside can never disagree. Quantiles are exact for
// values below subCount and over-report by at most 1/subCount above it.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	sub := (v >> (uint(exp) - subBits)) & (subCount - 1)
	return (exp-subBits+1)*subCount + int(sub)
}

// bucketUpper returns the largest value that maps to bucket idx; quantiles
// report this bound so they can only err high, never low.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	block := idx >> subBits
	sub := idx & (subCount - 1)
	exp := uint(block + subBits - 1)
	lo := int64(1)<<exp | int64(sub)<<(exp-subBits)
	return lo + int64(1)<<(exp-subBits) - 1
}

// Record adds one sample. Negative samples are clamped to zero so clock
// skew can never corrupt the bucket array. Safe for concurrent use and
// allocation-free.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n samples of the same value v — a batch's per-context share,
// say — in one update of the sum, the maximum and v's bucket: what n calls of
// Record(v) leave behind, at the cost of one. n <= 0 records nothing.
func (h *Histogram) RecordN(v int64, n int) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum.Add(v * int64(n))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(uint64(v))].Add(uint64(n))
}

// live returns the buckets that can hold a sample: those up to the
// maximum's. RecordN and Merge raise the maximum before they touch a bucket,
// so a pass over live misses no sample that was complete when it began — and
// a microsecond-latency histogram's pass is some hundred buckets, not 1888.
func (h *Histogram) live() []atomic.Uint64 {
	return h.buckets[:bucketIndex(uint64(h.max.Load()))+1]
}

// Count returns the number of recorded samples: a pass over the buckets, for
// the metrics endpoints and tests that ask, so that recording need not count.
func (h *Histogram) Count() uint64 { return sumBuckets(h.live()) }

func sumBuckets(buckets []atomic.Uint64) (total uint64) {
	for i := range buckets {
		total += buckets[i].Load()
	}
	return total
}

// Sum returns the sum of all recorded samples (post-clamp).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded sample, exact (not bucket-rounded).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// recorded samples: the upper edge of the bucket holding the ceil(q*count)-th
// smallest sample. It returns 0 when the histogram is empty. The bound is
// exact below subCount and within 1/subCount relative error above it, and it
// never under-reports — the truncation bias of index-into-sorted-samples
// estimators cannot occur here.
func (h *Histogram) Quantile(q float64) int64 {
	live := h.live()
	total := sumBuckets(live)
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	// Buckets only grow, so this second pass over the same buckets counts at
	// least total samples and reaches the rank.
	var cum uint64
	for i := range live {
		cum += live[i].Load()
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return h.max.Load()
}

// Merge adds other's samples into h bucket-wise. Both histograms may be
// concurrently recorded into during the merge; the result is a consistent
// point-in-time superset of h plus some prefix of other's updates.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.sum.Add(other.sum.Load())
	om := other.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
	for i := range h.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}
