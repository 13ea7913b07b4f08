package adsm_test

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"adsm"
	"adsm/internal/kv"
)

// TestKVLockStripeTCPContention is the lock-manager hammer for the real
// transport: four nodes on the loopback TCP mesh pound overlapping key
// ranges of one shared table, so distributed lock handoffs, read grants
// and their revocations, stripe-page diffs and page fetches all race each
// other. Run under -race this is the concurrency check for the lock
// manager; the final checksum against the host-model replay is the
// correctness check.
func TestKVLockStripeTCPContention(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp hammer in -short mode")
	}
	const procs = 4
	// Small key space + high skew: every worker's probe traffic keeps
	// landing on the same few stripes, so the same locks and the same
	// pages are contended from all four nodes at once.
	wl := kv.Workload{
		Keys:         64,
		OpsPerWorker: 300,
		ReadPct:      40,
		DeletePct:    10,
		Theta:        0.9,
		Seed:         11,
	}
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.SW, adsm.Adaptive} {
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := adsm.NewClusterErr(adsm.Config{
				Procs:     procs,
				Protocol:  proto,
				Transport: adsm.TCPTransport,
			})
			if err != nil {
				t.Fatal(err)
			}
			b := kv.NewBench(wl)
			b.Setup(cl)
			rep, err := cl.Run(b.Body)
			if err != nil {
				t.Fatal(err)
			}
			sum, ok := b.Checksum()
			if !ok {
				t.Fatal("checksum not computed")
			}
			if want := wl.ExpectedChecksum(procs); sum != want {
				t.Fatalf("checksum %#x != model %#x", sum, want)
			}
			// The hammer must actually have hammered: remote lock traffic,
			// Gets served from cached read grants, and (clean fetches exist
			// under a 40%-read mix) some whole-page fetches.
			if rep.Stats.LockAcquires == 0 {
				t.Errorf("no lock acquires recorded")
			}
			if rep.Stats.SharedLocal == 0 {
				t.Errorf("no shared acquire served locally")
			}
			if rep.Stats.PageFetches == 0 {
				t.Errorf("no page fetches recorded")
			}
		})
	}
}

// TestServeDeterminism pins the seeded end-to-end determinism the serve
// sweep's caching and the archived JSON both rely on: the same -seed
// yields bit-identical schedules, and two independent sim runs of the
// same cell agree on the checksum, the op count, and the virtual clock.
func TestServeDeterminism(t *testing.T) {
	wl := kv.DefaultWorkload()
	wl.Keys = 256
	wl.OpsPerWorker = 150
	const procs = 4

	// Schedules are a pure function of (workload, id, procs).
	for id := 0; id < procs; id++ {
		a, b := wl.Schedule(id, procs), wl.Schedule(id, procs)
		if len(a) != len(b) {
			t.Fatalf("worker %d: schedule lengths differ", id)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("worker %d op %d: %+v != %+v", id, j, a[j], b[j])
			}
		}
	}

	run := func() (uint64, int64, int64) {
		cl := adsm.NewCluster(adsm.Config{Procs: procs, Protocol: adsm.Adaptive})
		b := kv.NewBench(wl)
		b.Setup(cl)
		rep, err := cl.Run(b.Body)
		if err != nil {
			t.Fatal(err)
		}
		sum, ok := b.Checksum()
		if !ok {
			t.Fatal("checksum not computed")
		}
		return sum, b.Ops(), rep.Elapsed.Nanoseconds()
	}
	sum1, ops1, ns1 := run()
	sum2, ops2, ns2 := run()
	if sum1 != sum2 || ops1 != ops2 || ns1 != ns2 {
		t.Fatalf("two identical sim runs diverged: (%#x, %d, %dns) vs (%#x, %d, %dns)",
			sum1, ops1, ns1, sum2, ops2, ns2)
	}
	if sum1 != wl.ExpectedChecksum(procs) {
		t.Fatalf("checksum %#x != model %#x", sum1, wl.ExpectedChecksum(procs))
	}

	// A different seed actually changes the outcome (the pin is not
	// vacuous).
	wl2 := wl
	wl2.Seed = 42
	if wl2.ExpectedChecksum(procs) == sum1 {
		t.Fatalf("different seeds produced the same table checksum")
	}
}

// TestKVForeignDiffsBounded: between barriers a node evicts the diffs of
// other writers once every node knows their interval, so the diffs it
// caches stop growing with the run. The write-heavy serving mix runs on
// the simulator, paced like the serve sweep's open loop, at 1x and 4x the
// operations. A node's count moves between none and a few dozen as
// eviction passes and the frontier catch up, so the yardstick is the
// highest count any node reached during the 1x run: at the end of its
// 4x operations (before the closing barrier, which would collect every
// cache if memory ran short) no node may cache more than 1.25x that.
// Without eviction a node would hold over four thousand.
func TestKVForeignDiffsBounded(t *testing.T) {
	const procs = 4
	run := func(ops int) (peak int, end [procs]int, evicted int64) {
		wl := kv.DefaultWorkload()
		wl.ReadPct, wl.DeletePct = 10, 5
		wl.OpsPerWorker = ops
		cl := adsm.NewCluster(adsm.Config{Procs: procs, Protocol: adsm.MW})
		tab := kv.New(cl, wl.Keys, 0)
		var sum uint64
		rep, err := cl.Run(func(w *adsm.Worker) {
			sched := wl.Schedule(w.ID(), procs)
			w.Barrier()
			for j, op := range sched {
				if at := time.Duration(j) * wl.Interval; w.Now() < at {
					w.Compute(at - w.Now())
				}
				switch op.Kind {
				case kv.OpGet:
					tab.Get(w, op.Key)
				case kv.OpPut:
					tab.Put(w, op.Key, op.Val)
				case kv.OpDelete:
					tab.Delete(w, op.Key)
				}
				peak = max(peak, w.ForeignDiffs())
			}
			end[w.ID()] = w.ForeignDiffs()
			w.Barrier()
			if w.ID() == 0 {
				sum = tab.Checksum(w)
			}
			w.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := wl.ExpectedChecksum(procs); sum != want {
			t.Fatalf("%d ops: checksum %#x != model %#x", ops, sum, want)
		}
		return peak, end, rep.Stats.DiffsEvicted
	}
	peak, _, _ := run(500)
	_, end, evicted := run(2000)
	t.Logf("peak at 1x %d foreign diffs; at the end of 4x %v, %d evicted", peak, end, evicted)
	if peak == 0 || evicted == 0 {
		t.Fatalf("peak %d foreign diffs cached at 1x, %d evicted at 4x: the run does not exercise eviction", peak, evicted)
	}
	for id, n := range end {
		if 4*n > 5*peak {
			t.Errorf("node %d caches %d foreign diffs at the end of 4x the ops, want at most 1.25x the 1x peak %d",
				id, n, peak)
		}
	}
}

// TestServeHeapPerInterval bounds what a serving node keeps per interval.
// A serving loop has no barrier, so every interval's record and write
// notices stay on every node for the whole run: that record is what the
// live heap grows by. The write-heavy serving mix (serve_write's: 85 %
// Put) runs closed-loop on the 4-node tcp mesh under adaptive, and worker
// 0 reads how many intervals its node knows and the live heap at a third
// of its operations and again at the end of them. The heap's growth
// between the two, divided by those intervals and the four nodes that
// each keep them, must stay under serveHeapPerInterval bytes. Own diffs
// and the pages' notice lists grow with the intervals too, so they are in
// the figure. The other workers keep serving while worker 0 samples, and
// what they allocate during a collection's mark counts as live, so a
// sample is the least live heap of three forced collections.
func TestServeHeapPerInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp serving run in -short mode")
	}
	const procs = 4
	wl := kv.DefaultWorkload()
	wl.Interval = 0
	wl.ReadPct, wl.DeletePct = 10, 5
	wl.OpsPerWorker = 9000
	cl, err := adsm.NewClusterErr(adsm.Config{Procs: procs, Protocol: adsm.Adaptive, Transport: adsm.TCPTransport})
	if err != nil {
		t.Fatal(err)
	}
	tab := kv.New(cl, wl.Keys, 0)
	var heap [2]uint64
	var known [2]int
	sample := func(w *adsm.Worker, i int) {
		known[i] = w.KnownIntervals()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for k := 0; k < 3; k++ {
			runtime.GC()
			metrics.Read(live)
			if v := live[0].Value.Uint64(); k == 0 || v < heap[i] {
				heap[i] = v
			}
		}
	}
	if _, err := cl.Run(func(w *adsm.Worker) {
		sched := wl.Schedule(w.ID(), procs)
		w.Barrier()
		for j, op := range sched {
			if w.ID() == 0 && j == len(sched)/3 {
				sample(w, 0)
			}
			switch op.Kind {
			case kv.OpGet:
				tab.Get(w, op.Key)
			case kv.OpPut:
				tab.Put(w, op.Key, op.Val)
			case kv.OpDelete:
				tab.Delete(w, op.Key)
			}
		}
		if w.ID() == 0 {
			sample(w, 1)
		}
		w.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	intervals := known[1] - known[0]
	if intervals < 1000 {
		t.Fatalf("node 0 learned %d intervals between the samples: the run did not serve", intervals)
	}
	per := (float64(heap[1]) - float64(heap[0])) / float64(procs*intervals)
	t.Logf("live heap %d -> %d bytes over %d intervals: %.0f B per interval per node", heap[0], heap[1], intervals, per)
	if per > serveHeapPerInterval {
		t.Errorf("a serving node keeps %.0f B per interval, want at most %d", per, serveHeapPerInterval)
	}
}

// serveHeapPerInterval is TestServeHeapPerInterval's bound, in bytes per
// interval per node. With intervals and notices in per-node logs the test
// reads 89 to 116 (100 runs, 2-vCPU host; 89 to 114 in 60 runs of a
// checked build); with the pointer graph they replaced it read 185 to 230
// (60 runs).
const serveHeapPerInterval = 150
