package apps

import (
	"fmt"
	"math/rand"
	"time"

	"adsm"
)

// IS is the NAS integer sort kernel: keys are ranked with a bucket sort.
// Processors count their keys in private buckets, then add them into the
// shared bucket array under a lock — a migratory pattern in which the
// bucket pages are completely overwritten by each processor in turn
// (Table 2: large granularity, no false sharing). MW suffers diff
// accumulation here; SW and the adaptive protocols move whole pages.
//
// The merge and ranking sweeps are spans: the merge is one read-modify-
// write span over the whole bucket array (one fault check per bucket page
// instead of one per bucket), the ranking scan a read span.
type IS struct {
	totalKeys int
	buckets   int
	iters     int
	keyCost   time.Duration
	addCost   time.Duration

	bkt    adsm.Shared[int64]
	result float64
}

// NewIS builds the IS instance (quick: 2^12 keys/proc x3; full: 2^14 x8).
func NewIS(quick bool) *IS {
	is := &IS{totalKeys: 1 << 17, buckets: 8192, iters: 12,
		keyCost: 2500 * time.Nanosecond, addCost: 60 * time.Nanosecond}
	if quick {
		is.totalKeys, is.buckets, is.iters = 1<<14, 2048, 3
	}
	return is
}

func (is *IS) Name() string { return "IS" }
func (is *IS) Sync() string { return "l,b" }
func (is *IS) DataSet() string {
	return fmt.Sprintf("%d keys, %d buckets, %d rankings", is.totalKeys, is.buckets, is.iters)
}
func (is *IS) Result() float64 { return is.result }

// Setup allocates the shared bucket array (2048 x 8 B = 4 pages).
func (is *IS) Setup(cl *adsm.Cluster) {
	is.bkt = adsm.AllocArrayPageAligned[int64](cl, is.buckets)
}

// Body runs the rankings.
func (is *IS) Body(w *adsm.Worker) {
	// Deterministic global key population, striped across processors so
	// the bucket totals are independent of the processor count: each
	// draws the seeded sequence up to its band's end and keeps the band.
	rng := rand.New(rand.NewSource(7919))
	klo, khi := band(is.totalKeys, w.Procs(), w.ID())
	keys := make([]int, khi-klo)
	for i := range khi {
		k := rng.Intn(is.buckets)
		if i >= klo {
			keys[i-klo] = k
		}
	}

	counts := make([]int64, is.buckets)
	for it := 0; it < is.iters; it++ {
		// Local counting in private buckets (compute only).
		clear(counts)
		for _, k := range keys {
			counts[k]++
		}
		w.Compute(is.keyCost * time.Duration(len(keys)))

		// Sum into the shared buckets under the lock: the bucket pages
		// migrate from processor to processor and are fully overwritten.
		w.Lock(0)
		is.bkt.Span(w, 0, is.buckets, adsm.ReadWrite, func(i0 int, p []int64) {
			for k := range p {
				p[k] += counts[i0+k]
			}
		})
		w.Unlock(0)
		w.Compute(is.addCost * time.Duration(is.buckets))
		w.Barrier()

		// Ranking phase: every processor scans the bucket totals to rank
		// its own keys (reads the shared array).
		var rank int64
		is.bkt.Span(w, 0, is.buckets, adsm.Read, func(_ int, p []int64) {
			for _, v := range p {
				rank += v
			}
		})
		w.Compute(is.keyCost * time.Duration(len(keys)))
		_ = rank
		w.Barrier()
	}

	if w.ID() == 0 {
		var sum float64
		is.bkt.Span(w, 0, is.buckets, adsm.Read, func(i0 int, p []int64) {
			for k, v := range p {
				sum += float64(int64(i0+k)) * float64(v)
			}
		})
		is.result = sum
	}
	w.Barrier()
}
