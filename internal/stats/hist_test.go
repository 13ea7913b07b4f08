package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHistBucketBoundaries pins the bucket layout: values below histSub are
// exact, every bucket's [low, high] range round-trips through bucketOf, and
// boundaries are contiguous and monotone.
func TestHistBucketBoundaries(t *testing.T) {
	for v := int64(0); v < histSub; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want exact bucket %d", v, got, v)
		}
	}
	for i := 0; i < histBuckets-1; i++ {
		lo, hi := bucketLow(i), bucketHigh(i)
		if lo > hi {
			t.Fatalf("bucket %d: low %d > high %d", i, lo, hi)
		}
		if bucketOf(lo) != i {
			t.Fatalf("bucketOf(low %d) = %d, want %d", lo, bucketOf(lo), i)
		}
		if bucketOf(hi) != i {
			t.Fatalf("bucketOf(high %d) = %d, want %d", hi, bucketOf(hi), i)
		}
		if next := bucketLow(i + 1); next != hi+1 {
			t.Fatalf("bucket %d not contiguous: high %d, next low %d", i, hi, next)
		}
	}
	// Spot-check the first 2-wide bucket: the first octave's sub-buckets
	// are unit-wide, so exactness extends through 31 and 32/33 share.
	if bucketOf(31) != 31 || bucketOf(32) != 32 || bucketOf(33) != 32 {
		t.Fatalf("first shared bucket wrong: %d %d %d",
			bucketOf(31), bucketOf(32), bucketOf(33))
	}
	// The largest int64 must land in a valid bucket.
	if b := bucketOf(int64(^uint64(0) >> 1)); b >= histBuckets {
		t.Fatalf("max int64 bucket %d out of range %d", b, histBuckets)
	}
}

// TestHistRelativeError verifies the log-bucket resolution: a quantile
// upper bound is within 1/histSub of the true value.
func TestHistRelativeError(t *testing.T) {
	for _, v := range []int64{1, 100, 12345, 1 << 20, 987654321, 1 << 40} {
		var h Hist
		h.Record(v)
		got := h.Quantile(0.5)
		if got < v {
			t.Fatalf("Quantile below recorded value: %d < %d", got, v)
		}
		if float64(got-v) > float64(v)/histSub+1 {
			t.Fatalf("Quantile(%d) = %d: error above 1/%d", v, got, histSub)
		}
	}
}

// TestHistQuantiles checks quantiles against a sorted reference on a known
// distribution.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Hist
	vals := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		rank := int(q*float64(len(vals))+0.5) - 1
		exact := vals[rank]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("q%.2f: bound %d below exact %d", q, got, exact)
		}
		if float64(got-exact) > float64(exact)/histSub+1 {
			t.Fatalf("q%.2f: bound %d too far above exact %d", q, got, exact)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("Quantile(1) = %d, want max %d", h.Quantile(1), h.Max())
	}
	if h.Count() != 10000 {
		t.Fatalf("count %d", h.Count())
	}
}

// TestHistQuantileRank pins the documented rank: the ceil(q*count)-th
// smallest value, not q*count rounded to nearest, and the ceiling taken
// without float error (0.07*100 is 7.000000000000001 in float64). The
// samples 0..n-1 all land in exact buckets, so rank r reads back r-1.
func TestHistQuantileRank(t *testing.T) {
	cases := []struct {
		n    int64
		q    float64
		want int64
	}{
		{12, 0.95, 11}, // ceil(11.4) = 12; rounding gives rank 11
		{10, 0.91, 9},  // ceil(9.1) = 10; rounding gives rank 9
		{100, 0.07, 6}, // rank 7, not a float-inflated 8
		{10, 0.5, 4},   // an exact product keeps its rank
		{10, 0, 0},     // rank clamps to the smallest value
	}
	for _, c := range cases {
		var h Hist
		for v := int64(0); v < c.n; v++ {
			h.Record(v)
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("%d samples 0..%d: Quantile(%v) = %d, want %d", c.n, c.n-1, c.q, got, c.want)
		}
	}
}

// TestHistMerge pins that merging per-worker histograms equals recording
// everything into one.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole Hist
	parts := make([]*Hist, 4)
	for i := range parts {
		parts[i] = &Hist{}
	}
	for i := 0; i < 4000; i++ {
		v := int64(rng.Intn(1 << 30))
		whole.Record(v)
		parts[i%4].Record(v)
	}
	var merged Hist
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged != whole {
		t.Fatalf("merged histogram differs from whole-stream histogram")
	}
	// Merging an empty histogram is a no-op.
	before := merged
	merged.Merge(&Hist{})
	merged.Merge(nil)
	if merged != before {
		t.Fatalf("merging empty histogram changed state")
	}
}

// TestHistNegativeClamp: negative values clamp to zero instead of
// corrupting the layout.
func TestHistNegativeClamp(t *testing.T) {
	var h Hist
	h.Record(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative record not clamped: count %d min %d max %d",
			h.Count(), h.Min(), h.Max())
	}
}
