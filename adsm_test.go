package adsm_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"adsm"
	"adsm/internal/apps"
)

// pageWords is the number of uint64 elements one page holds.
const pageWords = adsm.PageSize / 8

func TestQuickstartCounter(t *testing.T) {
	for _, proto := range adsm.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: proto})
			ctr := adsm.AllocArray[uint64](cl, 1)
			rep, err := cl.Run(func(w *adsm.Worker) {
				for i := 0; i < 10; i++ {
					w.Lock(0)
					ctr.Set(w, 0, ctr.At(w, 0)+1)
					w.Unlock(0)
				}
				w.Barrier()
				if got := ctr.At(w, 0); got != 40 {
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
	base := adsm.AllocArrayPageAligned[float64](cl, 128).Base()
	_, err := cl.Run(func(w *adsm.Worker) {
		v := adsm.View[float64](base, 128)
		if w.ID() == 0 {
			for i := 0; i < 128; i++ {
				v.Set(w, i, float64(i)*1.5)
			}
		}
		w.Barrier()
		sum := 0.0
		for i := 0; i < 128; i++ {
			sum += v.At(w, i)
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
	base := adsm.AllocArray[int64](cl, 32).Base()
	_, err := cl.Run(func(w *adsm.Worker) {
		v := adsm.View[int64](base, 32)
		w.Lock(1)
		v.Set(w, 3, v.At(w, 3)+int64(w.ID()+5))
		w.Unlock(1)
		w.Barrier()
		if got := v.At(w, 3); got != 11 {
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
	words := adsm.AllocArrayPageAligned[uint64](cl, pageWords)
	rep, err := cl.Run(func(w *adsm.Worker) {
		for r := 0; r < 3; r++ {
			words.Set(w, w.ID()*pageWords/2, uint64(r+1))
			w.Barrier()
			_ = words.At(w, (1-w.ID())*pageWords/2)
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
	x := adsm.AllocArray[uint64](cl, 1)
	rep, err := cl.Run(func(w *adsm.Worker) {
		if w.Procs() != 8 {
			t.Errorf("default procs = %d, want 8", w.Procs())
		}
		if w.ID() == 0 {
			x.Set(w, 0, 9)
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

// TestReportStatsAreEngineCounts pins that a report copies no counter by
// hand: on quick SOR under MW and adaptive, every int64 field of
// Report.Stats is the engine's per-node total plus the runtime's count
// (plus the cluster's GCRuns), and the per-lane slices are the runtime's.
func TestReportStatsAreEngineCounts(t *testing.T) {
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.Adaptive} {
		t.Run(proto.String(), func(t *testing.T) {
			app, err := apps.New("SOR", true)
			if err != nil {
				t.Fatal(err)
			}
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: proto})
			app.Setup(cl)
			rep, err := cl.Run(app.Body)
			if err != nil {
				t.Fatal(err)
			}
			nodes, rt, gc := cl.EngineTotals()
			if rt.Messages == 0 || rt.DataBytes == 0 || nodes.ReadFaults == 0 || nodes.Barriers == 0 {
				t.Fatalf("nothing counted: runtime %+v, nodes %+v", rt, nodes)
			}
			got, nv, rv := reflect.ValueOf(rep.Stats), reflect.ValueOf(nodes), reflect.ValueOf(rt)
			for i := range got.NumField() {
				f := got.Type().Field(i)
				if f.Type.Kind() != reflect.Int64 {
					if !reflect.DeepEqual(got.Field(i).Interface(), rv.Field(i).Interface()) {
						t.Errorf("%s = %v, runtime counted %v", f.Name, got.Field(i), rv.Field(i))
					}
					continue
				}
				want := nv.Field(i).Int() + rv.Field(i).Int()
				if f.Name == "GCRuns" {
					want += gc
				}
				if got.Field(i).Int() != want {
					t.Errorf("%s = %d, want %d (nodes %d + runtime %d)",
						f.Name, got.Field(i).Int(), want, nv.Field(i).Int(), rv.Field(i).Int())
				}
			}
		})
	}
}

// TestSetupCostFollowsAllocation pins what a cluster costs before it does
// any work: NewCluster plus an empty Run with ONE allocated page under the
// default 64 MB segment must allocate under 4 MB in total, on the
// simulator and on the 4-node in-process tcp mesh. Page structs, initial
// copies, home and detector tables are sized by the allocation; when they
// were sized by the segment's capacity the same sequence allocated ~145 MB
// (16 384 zero pages at node 0, a snapshot of each, 65 k page structs)
// and took 70-90 ms.
func TestSetupCostFollowsAllocation(t *testing.T) {
	for _, tr := range []adsm.Transport{adsm.SimTransport, adsm.TCPTransport} {
		t.Run(tr.String(), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: adsm.Adaptive, Transport: tr})
			adsm.AllocArray[uint64](cl, pageWords)
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

// TestConfigSurface pins the public configuration surface: the exported
// fields of Config and TCPConfig. Adding a knob means editing this list on
// purpose; engine paths that only exist to be compared against the default
// belong in internal/core.Params, reached by tests through
// NewClusterParams.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Config.Procs", "Config.Protocol", "Config.HomePolicy",
		"Config.DiffSpaceLimit", "Config.WGThreshold", "Config.OwnershipQuantum",
		"Config.CollectDiffTimeline", "Config.Transport", "Config.TCP",
		"TCPConfig.Addrs", "TCPConfig.Local", "TCPConfig.DialTimeout",
		"TCPConfig.Fingerprint", "TCPConfig.LeaseTerm", "TCPConfig.Faults",
	}
	var got []string
	for _, typ := range []reflect.Type{reflect.TypeOf(adsm.Config{}), reflect.TypeOf(adsm.TCPConfig{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.Name()+"."+f.Name)
			}
		}
	}
	if len(want) != 15 || !slices.Equal(got, want) {
		t.Errorf("public config surface changed:\n got  %d fields %v\n want %d fields %v",
			len(got), got, len(want), want)
	}
}
