package adsm_test

import (
	"runtime"
	"testing"
	"time"

	"adsm"
)

func TestQuickstartCounter(t *testing.T) {
	for _, proto := range adsm.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: proto})
			ctr := cl.Alloc(8)
			rep, err := cl.Run(func(w *adsm.Worker) {
				for i := 0; i < 10; i++ {
					w.Lock(0)
					w.WriteU64(ctr, w.ReadU64(ctr)+1)
					w.Unlock(0)
				}
				w.Barrier()
				if got := w.ReadU64(ctr); got != 40 {
					t.Errorf("worker %d: counter = %d, want 40", w.ID(), got)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Elapsed <= 0 {
				t.Errorf("elapsed = %v", rep.Elapsed)
			}
			if rep.Stats.LockAcquires != 40 {
				t.Errorf("lock acquires = %d, want 40", rep.Stats.LockAcquires)
			}
			if rep.Protocol != proto || rep.Procs != 4 {
				t.Errorf("report identity wrong: %+v", rep)
			}
		})
	}
}

func TestFloat64Views(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 2, Protocol: adsm.WFS})
	base := cl.AllocPageAligned(1024)
	_, err := cl.Run(func(w *adsm.Worker) {
		v := w.F64(base, 128)
		if w.ID() == 0 {
			for i := 0; i < 128; i++ {
				v.Set(i, float64(i)*1.5)
			}
		}
		w.Barrier()
		sum := 0.0
		for i := 0; i < 128; i++ {
			sum += v.At(i)
		}
		if want := 1.5 * 127 * 128 / 2; sum != want {
			t.Errorf("worker %d: sum = %v, want %v", w.ID(), sum, want)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestI64Views(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 2, Protocol: adsm.MW})
	base := cl.Alloc(256)
	_, err := cl.Run(func(w *adsm.Worker) {
		v := w.I64(base, 32)
		w.Lock(1)
		v.Add(3, int64(w.ID()+5))
		w.Unlock(1)
		w.Barrier()
		if got := v.At(3); got != 11 {
			t.Errorf("worker %d: v[3] = %d, want 11", w.ID(), got)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiffTimelineCollection(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 2, Protocol: adsm.MW, CollectDiffTimeline: true})
	base := cl.AllocPageAligned(adsm.PageSize)
	rep, err := cl.Run(func(w *adsm.Worker) {
		for r := 0; r < 3; r++ {
			w.WriteU64(base+w.ID()*2048, uint64(r+1))
			w.Barrier()
			_ = w.ReadU64(base + (1-w.ID())*2048)
			w.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DiffTimeline) == 0 {
		t.Fatalf("expected a diff timeline under MW")
	}
	if rep.Stats.DiffsCreated == 0 {
		t.Errorf("expected diffs under MW")
	}
}

func TestConfigDefaults(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{})
	x := cl.Alloc(8)
	rep, err := cl.Run(func(w *adsm.Worker) {
		if w.Procs() != 8 {
			t.Errorf("default procs = %d, want 8", w.Procs())
		}
		if w.ID() == 0 {
			w.WriteU64(x, 9)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != 8 || rep.Protocol != adsm.MW {
		t.Errorf("defaults wrong: %+v", rep)
	}
}

func TestRunTwiceFails(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 1})
	if _, err := cl.Run(func(w *adsm.Worker) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(func(w *adsm.Worker) {}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestReportHelpers(t *testing.T) {
	r := &adsm.Report{}
	r.Stats.TwinBytes = 1 << 20
	r.Stats.DiffBytes = 1 << 20
	r.Stats.DataBytes = 3 << 20
	if r.MemoryMB() != 2 {
		t.Errorf("MemoryMB = %v", r.MemoryMB())
	}
	if r.DataMB() != 3 {
		t.Errorf("DataMB = %v", r.DataMB())
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 1, Protocol: adsm.SW})
	rep, err := cl.Run(func(w *adsm.Worker) {
		before := w.Now()
		w.Compute(5 * time.Millisecond)
		if w.Now()-before != 5*time.Millisecond {
			t.Errorf("compute advanced %v", w.Now()-before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed < 5*time.Millisecond {
		t.Errorf("elapsed = %v", rep.Elapsed)
	}
}

// TestSetupCostFollowsAllocation pins what a cluster costs before it does
// any work: NewCluster plus an empty Run with ONE allocated page under the
// default 64 MB segment must allocate under 4 MB in total, on the
// simulator and on the 4-node in-process tcp mesh. Page structs, initial
// copies, region publications, home and detector tables are sized by the
// allocation; when they were sized by the segment's capacity the same
// sequence allocated ~145 MB (16 384 zero pages at node 0, a region
// snapshot of each, 65 k page structs) and took 70-90 ms.
func TestSetupCostFollowsAllocation(t *testing.T) {
	for _, tr := range []adsm.Transport{adsm.SimTransport, adsm.TCPTransport} {
		t.Run(tr.String(), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: adsm.Adaptive, Transport: tr})
			cl.Alloc(adsm.PageSize)
			if _, err := cl.Run(func(w *adsm.Worker) {}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("NewCluster + empty Run allocated %d KB", got>>10)
			if got >= 4<<20 {
				t.Errorf("NewCluster + empty Run allocated %d bytes for a one-page allocation, want < 4 MB", got)
			}
		})
	}
}
