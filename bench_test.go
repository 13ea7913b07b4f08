package adsm_test

// Benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark regenerates its rows as b.ReportMetric values (and the
// full formatted tables via `go run ./cmd/dsmbench`). Virtual (simulated)
// execution time, not host time, is the quantity of interest: host ns/op
// only reflects simulator speed.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkFigure2 -benchmem

import (
	"sync"
	"testing"
	"time"

	"adsm"
	"adsm/internal/harness"
)

// benchMatrix caches runs across benchmarks so shared cells (e.g. the MW
// run used by Figure 2, Table 3 and Table 4) execute once.
var (
	benchMatrixOnce sync.Once
	benchMatrix     *harness.Matrix
)

func matrix(b *testing.B) *harness.Matrix {
	b.Helper()
	benchMatrixOnce.Do(func() {
		benchMatrix = harness.NewMatrix(testing.Short())
	})
	return benchMatrix
}

// BenchmarkTable1SequentialTimes regenerates Table 1's sequential
// execution times (virtual seconds per application).
func BenchmarkTable1SequentialTimes(b *testing.B) {
	m := matrix(b)
	for _, name := range harness.AppNames() {
		b.Run(name, func(b *testing.B) {
			var rep *adsm.Report
			for i := 0; i < b.N; i++ {
				rep = m.Sequential(name)
			}
			b.ReportMetric(rep.Elapsed.Seconds(), "vsec")
		})
	}
}

// BenchmarkTable2Characteristics regenerates Table 2: the percentage of
// write-write falsely shared pages and the average diff size (write
// granularity), measured under MW.
func BenchmarkTable2Characteristics(b *testing.B) {
	m := matrix(b)
	for _, name := range harness.AppNames() {
		b.Run(name, func(b *testing.B) {
			var rep *adsm.Report
			for i := 0; i < b.N; i++ {
				rep = m.Parallel(name, adsm.MW)
			}
			b.ReportMetric(rep.Sharing.FSPercent, "fs%")
			b.ReportMetric(rep.Sharing.AvgDiffBytes, "diffB")
		})
	}
}

// BenchmarkFigure2Speedup regenerates Figure 2: the 8-processor speedup of
// every application under every protocol.
func BenchmarkFigure2Speedup(b *testing.B) {
	m := matrix(b)
	for _, name := range harness.AppNames() {
		for _, proto := range adsm.Protocols() {
			b.Run(name+"/"+proto.String(), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					s = m.Speedup(name, proto)
				}
				b.ReportMetric(s, "speedup")
			})
		}
	}
}

// BenchmarkTable3Memory regenerates Table 3: twin+diff memory consumption
// for MW, WFS+WG and WFS.
func BenchmarkTable3Memory(b *testing.B) {
	m := matrix(b)
	for _, name := range harness.AppNames() {
		for _, proto := range []adsm.Protocol{adsm.MW, adsm.WFSWG, adsm.WFS} {
			b.Run(name+"/"+proto.String(), func(b *testing.B) {
				var rep *adsm.Report
				for i := 0; i < b.N; i++ {
					rep = m.Parallel(name, proto)
				}
				b.ReportMetric(rep.MemoryMB(), "MB")
				b.ReportMetric(float64(rep.Stats.MaxLiveTwinDiff)/(1<<20), "peakMB")
			})
		}
	}
}

// BenchmarkTable4Communication regenerates Table 4: messages, ownership
// requests and data exchanged.
func BenchmarkTable4Communication(b *testing.B) {
	m := matrix(b)
	for _, name := range harness.AppNames() {
		for _, proto := range adsm.Protocols() {
			b.Run(name+"/"+proto.String(), func(b *testing.B) {
				var rep *adsm.Report
				for i := 0; i < b.N; i++ {
					rep = m.Parallel(name, proto)
				}
				b.ReportMetric(float64(rep.Stats.Messages)/1000, "kmsgs")
				b.ReportMetric(float64(rep.Stats.OwnershipRequests)/1000, "kownreq")
				b.ReportMetric(rep.DataMB(), "dataMB")
			})
		}
	}
}

// BenchmarkFigure3DiffTimeline regenerates Figure 3: diff creation and
// garbage collection over time in 3D-FFT under MW, WFS+WG and WFS.
func BenchmarkFigure3DiffTimeline(b *testing.B) {
	m := matrix(b)
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.WFSWG, adsm.WFS} {
		b.Run(proto.String(), func(b *testing.B) {
			var peak, created, gcs float64
			for i := 0; i < b.N; i++ {
				rep := m.Figure3Data(proto)
				peak = 0
				for _, p := range rep.DiffTimeline {
					if float64(p.LiveDiffs) > peak {
						peak = float64(p.LiveDiffs)
					}
				}
				created = float64(rep.Stats.DiffsCreated)
				gcs = float64(rep.Stats.GCRuns)
			}
			b.ReportMetric(peak, "peak-diffs")
			b.ReportMetric(created, "diffs")
			b.ReportMetric(gcs, "gcs")
		})
	}
}

// BenchmarkAblationQuantum sweeps the SW ownership quantum (DESIGN.md
// ablation: sensitivity of the ping-pong mitigation).
func BenchmarkAblationQuantum(b *testing.B) {
	m := matrix(b)
	for i := 0; i < b.N; i++ {
		for _, r := range m.AblationQuantum() {
			b.ReportMetric(r.Elapsed.Seconds(), "vsec-"+r.Value)
		}
	}
}

// BenchmarkAblationWGThreshold sweeps the WFS+WG diff-size threshold.
func BenchmarkAblationWGThreshold(b *testing.B) {
	m := matrix(b)
	for i := 0; i < b.N; i++ {
		for _, r := range m.AblationWGThreshold() {
			b.ReportMetric(r.Elapsed.Seconds(), "vsec-"+r.Value)
		}
	}
}

// BenchmarkAblationGCLimit sweeps the MW diff-space (garbage collection)
// limit.
func BenchmarkAblationGCLimit(b *testing.B) {
	m := matrix(b)
	for i := 0; i < b.N; i++ {
		for _, r := range m.AblationGCLimit() {
			b.ReportMetric(r.Elapsed.Seconds(), "vsec-"+r.Value)
		}
	}
}

// BenchmarkProtocolPrimitives measures the simulator's basic protocol
// operations (for calibration sanity: a page fetch is ~1.9 virtual ms).
func BenchmarkProtocolPrimitives(b *testing.B) {
	b.Run("page-fetch", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			cl := adsm.NewCluster(adsm.Config{Procs: 2, Protocol: adsm.SW})
			page := adsm.AllocArrayPageAligned[uint64](cl, 1)
			rep, err := cl.Run(func(w *adsm.Worker) {
				if w.ID() == 0 {
					page.Set(w, 0, 1)
				}
				w.Barrier()
				if w.ID() == 1 {
					_ = page.At(w, 0)
				}
				w.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
			total = rep.Elapsed
		}
		b.ReportMetric(float64(total.Microseconds()), "vus-total")
	})
}
