package kv

import (
	"math/rand"
	"reflect"
	"testing"

	"adsm"
)

// TestTableBasics: single-worker put/get/delete/overwrite semantics.
func TestTableBasics(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 1, Protocol: adsm.MW})
	b := NewBench(Workload{Keys: 256, OpsPerWorker: 1, ReadPct: 100, Seed: 1})
	b.Setup(cl)
	tab := b.Table()
	_, err := cl.Run(func(w *adsm.Worker) {
		if _, ok := tab.Get(w, 7); ok {
			t.Errorf("Get on empty table reported a hit")
		}
		v1 := Value{1, 2, 3, 4, 5, 6}
		tab.Put(w, 7, v1)
		if got, ok := tab.Get(w, 7); !ok || got != v1 {
			t.Errorf("Get(7) = %v, %v; want %v, true", got, ok, v1)
		}
		v2 := Value{9, 9, 9, 9, 9, 9}
		tab.Put(w, 7, v2)
		if got, _ := tab.Get(w, 7); got != v2 {
			t.Errorf("overwrite lost: Get(7) = %v, want %v", got, v2)
		}
		if !tab.Delete(w, 7) {
			t.Errorf("Delete(7) reported absent")
		}
		if _, ok := tab.Get(w, 7); ok {
			t.Errorf("Get after Delete reported a hit")
		}
		if tab.Delete(w, 7) {
			t.Errorf("second Delete reported present")
		}
		// Reinsert through the tombstone.
		tab.Put(w, 7, v1)
		if got, ok := tab.Get(w, 7); !ok || got != v1 {
			t.Errorf("reinsert: Get(7) = %v, %v", got, ok)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTableAllKeysFit: the constructor's sizing guarantee — every key in
// range inserts without panic, and all survive round-trip.
func TestTableAllKeysFit(t *testing.T) {
	const keys = 500
	cl := adsm.NewCluster(adsm.Config{Procs: 1, Protocol: adsm.MW})
	b := NewBench(Workload{Keys: keys, OpsPerWorker: 1, ReadPct: 100, Seed: 1})
	b.Setup(cl)
	tab := b.Table()
	_, err := cl.Run(func(w *adsm.Worker) {
		for k := uint64(0); k < keys; k++ {
			tab.Put(w, k, putValue(k, 0, int(k)))
		}
		for k := uint64(0); k < keys; k++ {
			if got, ok := tab.Get(w, k); !ok || got != putValue(k, 0, int(k)) {
				t.Fatalf("key %d: got %v ok=%v", k, got, ok)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZipfSkew: theta=0.99 concentrates mass on low keys; theta=0 is
// roughly uniform. (Statistical sanity, seeded, so no flake.)
func TestZipfSkew(t *testing.T) {
	const n, draws = 1000, 100000
	r := rand.New(rand.NewSource(1))
	z := newZipf(n, 0.99)
	var top10 int
	for i := 0; i < draws; i++ {
		if z.next(r) < 10 {
			top10++
		}
	}
	if frac := float64(top10) / draws; frac < 0.3 {
		t.Errorf("theta=0.99: top-10 keys drew %.2f of mass, want > 0.3", frac)
	}
	r = rand.New(rand.NewSource(1))
	z = newZipf(n, 0)
	top10 = 0
	for i := 0; i < draws; i++ {
		if z.next(r) < 10 {
			top10++
		}
	}
	if frac := float64(top10) / draws; frac > 0.05 {
		t.Errorf("theta=0: top-10 keys drew %.2f of mass, want ~0.01", frac)
	}
	// Every draw stays in range.
	for i := 0; i < 1000; i++ {
		if k := z.next(r); k >= n {
			t.Fatalf("draw %d out of range", k)
		}
	}
}

// TestScheduleDeterminism: same seed, same stream — bit-identical ops —
// and different seeds or workers diverge.
func TestScheduleDeterminism(t *testing.T) {
	wl := DefaultWorkload()
	wl.OpsPerWorker = 500
	a := wl.Schedule(1, 4)
	b := wl.Schedule(1, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (seed, worker) produced different schedules")
	}
	c := wl.Schedule(2, 4)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different workers produced identical schedules")
	}
	wl2 := wl
	wl2.Seed = 99
	d := wl2.Schedule(1, 4)
	if reflect.DeepEqual(a, d) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

// TestOwnerPartition: every mutation in every schedule targets a key
// owned by its worker, so no key ever has two writers.
func TestOwnerPartition(t *testing.T) {
	wl := DefaultWorkload()
	wl.OpsPerWorker = 1000
	const procs = 4
	for id := 0; id < procs; id++ {
		for _, op := range wl.Schedule(id, procs) {
			if op.Kind == OpGet {
				continue
			}
			if int(op.Key)%procs != id {
				t.Fatalf("worker %d mutates key %d (owner %d)", id, op.Key, op.Key%procs)
			}
			if op.Key >= uint64(wl.Keys) {
				t.Fatalf("worker %d mutates out-of-range key %d", id, op.Key)
			}
		}
	}
}

// TestBenchMatchesModel: a multi-worker sim run's table checksum equals
// the host-side replay, for the protocols across the diff/ownership/home
// design space.
func TestBenchMatchesModel(t *testing.T) {
	wl := Workload{
		Keys:         512,
		OpsPerWorker: 300,
		ReadPct:      60,
		DeletePct:    10,
		Theta:        0.9,
		Seed:         7,
		Interval:     50 * 1000, // 50us
	}
	const procs = 4
	want := wl.ExpectedChecksum(procs)
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.SW, adsm.HLRC, adsm.Adaptive} {
		t.Run(proto.String(), func(t *testing.T) {
			cl := adsm.NewCluster(adsm.Config{Procs: procs, Protocol: proto})
			b := NewBench(wl)
			b.Setup(cl)
			if _, err := cl.Run(b.Body); err != nil {
				t.Fatal(err)
			}
			got, ok := b.Checksum()
			if !ok {
				t.Fatal("checksum not computed")
			}
			if got != want {
				t.Fatalf("checksum %#x != model %#x", got, want)
			}
			if b.Hist().Count() != int64(procs*wl.OpsPerWorker) {
				t.Fatalf("recorded %d latencies, want %d", b.Hist().Count(), procs*wl.OpsPerWorker)
			}
			if b.Hist().Quantile(0.5) <= 0 {
				t.Fatalf("p50 latency = %d, want > 0", b.Hist().Quantile(0.5))
			}
		})
	}
}
