package adsm_test

import (
	"testing"

	"adsm"
	"adsm/internal/kv"
)

// TestKVLockStripeTCPContention is the lock-manager hammer for the real
// transport: four nodes on the loopback TCP mesh (one-sided region reads
// enabled — the default) pound overlapping key ranges of one shared
// table, so distributed lock handoffs, read grants and their revocations,
// stripe-page diffs and one-sided page fetches all race each other. Run
// under -race this is the concurrency check for the lock manager and the
// region-read path; the final checksum against the host-model replay is
// the correctness check.
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
			// under a 40%-read mix) some one-sided region reads.
			if rep.Stats.LockAcquires == 0 {
				t.Errorf("no lock acquires recorded")
			}
			if rep.Stats.SharedLocal == 0 {
				t.Errorf("no shared acquire served locally")
			}
			if rep.Stats.OneSidedReads == 0 {
				t.Errorf("no page fetches served one-sided")
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
