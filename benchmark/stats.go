package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (0 for an empty sample).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomean returns the geometric mean of xs (0 for an empty sample).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0: the value of a rate over no attempts.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeEach times n calls of fn one at a time and returns the durations in
// nanoseconds, sorted. For calls of a microsecond or more.
func timeEach(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0))
	}
	sort.Float64s(out)
	return out
}

// timeBatched takes n samples, each the mean nanoseconds per call over
// batch back-to-back calls of fn, and returns them sorted. For calls too
// short to time singly against the clock's own cost.
func timeBatched(n, batch int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		out[i] = float64(time.Since(t0)) / float64(batch)
	}
	sort.Float64s(out)
	return out
}
