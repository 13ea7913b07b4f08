package stats

import (
	"math"
	"math/bits"
)

// Hist is a log-bucketed latency histogram in the HDR style: values below
// histLinear are counted exactly, larger values land in one of histSub
// sub-buckets per power of two, giving a worst-case relative error of
// 1/histSub (~6%) at any magnitude up to 2^63-1. The zero value is ready
// to use. Histograms are mergeable across workers (Merge) — bucket layout
// is fixed, so merging is element-wise addition — which is what the serve
// harness relies on to aggregate per-worker latency records.
type Hist struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits = 4
	// histSub is the number of sub-buckets per power of two (and the
	// count of exact unit-wide buckets at the bottom of the range).
	histSub = 1 << histSubBits
	// 60 octaves of histSub sub-buckets cover values up to 2^63-1 after
	// the histSub exact buckets cover [0, histSub).
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return histSub + (exp-histSubBits)*histSub + sub
}

// bucketLow returns the smallest value mapped to bucket i (the inverse of
// bucketOf on bucket lower bounds).
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := histSubBits + (i-histSub)/histSub
	sub := (i - histSub) % histSub
	return (int64(histSub) + int64(sub)) << (uint(exp) - histSubBits)
}

// bucketHigh returns the largest value mapped to bucket i.
func bucketHigh(i int) int64 {
	if i >= histBuckets-1 {
		return int64(^uint64(0) >> 1)
	}
	return bucketLow(i+1) - 1
}

// Record adds one value. Negative values clamp to zero (latencies are
// non-negative by construction; a clock hiccup must not corrupt the
// layout).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h (bucket layouts are identical by construction).
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of recorded values.
func (h *Hist) Count() int64 { return h.count }

// Mean returns the exact mean of the recorded values (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded value (0 when empty).
func (h *Hist) Min() int64 { return h.min }

// Max returns the largest recorded value (0 when empty).
func (h *Hist) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// high edge of the bucket holding the ceil(q*count)-th smallest value,
// clamped to the recorded max so Quantile(1) == Max. Returns 0 when the
// histogram is empty.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// q*count carries float error (0.07*100 is 7.000000000000001), so step
	// the ceiling back when the rank below it already covers q.
	n := float64(h.count)
	rank := int64(math.Ceil(q * n))
	if rank > 1 && float64(rank-1)/n >= q {
		rank--
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			hi := bucketHigh(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}
