package adsm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adsm"
	"adsm/internal/core"
)

// mustPanic asserts that fn panics, returning the panic message.
func mustPanic(t *testing.T, what string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: expected a panic", what)
			return
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return
}

func TestAllocRejectsNonPositive(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 1})
	for _, n := range []int{0, -1} {
		if msg := mustPanic(t, fmt.Sprintf("AllocArray(%d)", n), func() { adsm.AllocArray[float64](cl, n) }); msg != "" &&
			!strings.Contains(msg, "must be positive") {
			t.Errorf("AllocArray(%d) panic %q does not explain the failure", n, msg)
		}
		if msg := mustPanic(t, fmt.Sprintf("AllocArrayPageAligned(%d)", n), func() { adsm.AllocArrayPageAligned[int64](cl, n) }); msg != "" &&
			!strings.Contains(msg, "must be positive") {
			t.Errorf("AllocArrayPageAligned(%d) panic %q does not explain the failure", n, msg)
		}
	}
}

// TestAllocAlignment pins the documented 8-byte alignment guarantee.
func TestAllocAlignment(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 1})
	adsm.AllocArray[int32](cl, 3) // a 12-byte allocation must not misalign the next one
	if a := adsm.AllocArray[int64](cl, 2); a.Base()%8 != 0 {
		t.Errorf("AllocArray after a 12-byte allocation returned %d, not 8-byte aligned", a.Base())
	}
	arr := adsm.AllocArray[float64](cl, 5)
	if arr.Base()%8 != 0 {
		t.Errorf("AllocArray base %d not 8-byte aligned", arr.Base())
	}
	if arr.Addr(3) != arr.Base()+24 {
		t.Errorf("Addr(3) = %d, want base+24", arr.Addr(3))
	}
}

// TestSharedAtSet drives the element ops of every supported type through
// the protocol.
func TestSharedAtSet(t *testing.T) {
	cl := adsm.NewCluster(adsm.Config{Procs: 2, Protocol: adsm.WFS})
	f := adsm.AllocArray[float64](cl, 8)
	i32 := adsm.AllocArray[int32](cl, 8)
	u64 := adsm.AllocArray[uint64](cl, 8)
	_, err := cl.Run(func(w *adsm.Worker) {
		if w.ID() == 0 {
			f.Set(w, 3, -2.5)
			i32.Set(w, 1, -77)
			u64.Set(w, 7, 1<<63)
		}
		w.Barrier()
		if got := f.At(w, 3); got != -2.5 {
			t.Errorf("worker %d: f[3] = %v", w.ID(), got)
		}
		if got := i32.At(w, 1); got != -77 {
			t.Errorf("worker %d: i32[1] = %v", w.ID(), got)
		}
		if got := u64.At(w, 7); got != 1<<63 {
			t.Errorf("worker %d: u64[7] = %v", w.ID(), got)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// spanEngine selects the per-word reference engine when perWord is set,
// the default engine otherwise.
func spanEngine(perWord bool) func(*core.Params) {
	if perWord {
		return perWordSpans
	}
	return nil
}

// TestBulkOpsCrossPageBoundaries moves ranges spanning several pages
// through ReadAt/WriteAt/Fill and cross-checks against element ops.
func TestBulkOpsCrossPageBoundaries(t *testing.T) {
	for _, perWord := range []bool{false, true} {
		t.Run(fmt.Sprintf("perWord=%v", perWord), func(t *testing.T) {
			cl, err := adsm.NewClusterParams(adsm.Config{Procs: 2, Protocol: adsm.MW}, spanEngine(perWord))
			if err != nil {
				t.Fatal(err)
			}
			const n = 3*512 + 100 // ~3.2 pages of float64
			arr := adsm.AllocArrayPageAligned[float64](cl, n)
			_, err = cl.Run(func(w *adsm.Worker) {
				if w.ID() == 0 {
					src := make([]float64, 1200) // crosses two page boundaries
					for i := range src {
						src[i] = float64(i) * 0.25
					}
					arr.WriteAt(w, src, 300) // starts mid-page
					arr.Fill(w, 10, 40, 9.5)
				}
				w.Barrier()
				dst := make([]float64, 1200)
				arr.ReadAt(w, dst, 300)
				for i := range dst {
					if dst[i] != float64(i)*0.25 {
						t.Fatalf("worker %d: dst[%d] = %v, want %v", w.ID(), i, dst[i], float64(i)*0.25)
					}
				}
				// Element ops observe the same bytes the bulk ops wrote.
				for i := 0; i < 40; i++ {
					if got := arr.At(w, 10+i); got != 9.5 {
						t.Fatalf("worker %d: fill[%d] = %v", w.ID(), i, got)
					}
				}
				if got := arr.At(w, 777); got != float64(777-300)*0.25 {
					t.Errorf("worker %d: At(777) = %v", w.ID(), got)
				}
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpanMidPageWindows exercises Span windows that start and end inside
// pages, in every mode, and verifies the results element-wise.
func TestSpanMidPageWindows(t *testing.T) {
	for _, perWord := range []bool{false, true} {
		t.Run(fmt.Sprintf("perWord=%v", perWord), func(t *testing.T) {
			cl, err := adsm.NewClusterParams(adsm.Config{Procs: 2, Protocol: adsm.WFS}, spanEngine(perWord))
			if err != nil {
				t.Fatal(err)
			}
			arr := adsm.AllocArrayPageAligned[int64](cl, 2048) // 4 pages
			_, err = cl.Run(func(w *adsm.Worker) {
				if w.ID() == 0 {
					// Write window [100, 1500): mid-page start and end,
					// crossing two page boundaries.
					arr.Span(w, 100, 1500, adsm.Write, func(i int, p []int64) {
						for k := range p {
							p[k] = int64(i + k)
						}
					})
					// Read-modify-write window inside the write window.
					arr.Span(w, 600, 900, adsm.ReadWrite, func(i int, p []int64) {
						for k := range p {
							p[k] *= 2
						}
					})
				}
				w.Barrier()
				// Read span sums must agree with element reads.
				var spanSum, elemSum int64
				arr.Span(w, 0, 2048, adsm.Read, func(i int, p []int64) {
					for _, v := range p {
						spanSum += v
					}
				})
				for i := 0; i < 2048; i++ {
					elemSum += arr.At(w, i)
					want := int64(0)
					if i >= 100 && i < 1500 {
						want = int64(i)
						if i >= 600 && i < 900 {
							want *= 2
						}
					}
					if got := arr.At(w, i); got != want {
						t.Fatalf("worker %d: arr[%d] = %d, want %d", w.ID(), i, got, want)
					}
				}
				if spanSum != elemSum {
					t.Errorf("worker %d: span sum %d != element sum %d", w.ID(), spanSum, elemSum)
				}
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpanFaultsOncePerPage pins the cost claim: a write span over k pages
// takes exactly k write faults, not one per element, under every protocol.
// Spans batch only their reads: the writer holds no copy of the k pages,
// yet the write-only span issues no batched fetch, so each page's write
// fault (an ownership request or a fetch and twin) runs on its own.
func TestSpanFaultsOncePerPage(t *testing.T) {
	const k = 4
	for _, proto := range adsm.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			cl := adsm.NewCluster(adsm.Config{Procs: 2, Protocol: proto})
			arr := adsm.AllocArrayPageAligned[float64](cl, k*512)
			rep, err := cl.Run(func(w *adsm.Worker) {
				if w.ID() == 1 {
					arr.Span(w, 0, k*512, adsm.Write, func(i int, p []float64) {
						for j := range p {
							p[j] = 1
						}
					})
				}
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			s := rep.Stats
			if s.WriteFaults != k {
				t.Errorf("write faults = %d, want %d (one per page)", s.WriteFaults, k)
			}
			if s.ReadFaults != 0 {
				t.Errorf("read faults = %d, want 0 for a write-only span", s.ReadFaults)
			}
			if s.BatchedFetches != 0 || s.PrefetchPages != 0 {
				t.Errorf("write-only span batched: %d rounds, %d pages, want none",
					s.BatchedFetches, s.PrefetchPages)
			}
		})
	}
}

// TestI64AddLocked: concurrent Shared[int64].AddLocked calls must never
// lose an update, under every protocol.
func TestI64AddLocked(t *testing.T) {
	for _, proto := range adsm.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: proto})
			v := adsm.AllocArray[int64](cl, 8)
			_, err := cl.Run(func(w *adsm.Worker) {
				for i := 0; i < 10; i++ {
					v.AddLocked(w, 3, 2, 1)
				}
				w.Barrier()
				if got := v.At(w, 2); got != 40 {
					t.Errorf("worker %d: v[2] = %d, want 40", w.ID(), got)
				}
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpdateLocked: the generalized read-modify-write never loses an
// update, and the order-insensitive fold (max) converges to the same value
// on every worker under every protocol.
func TestUpdateLocked(t *testing.T) {
	for _, proto := range adsm.Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: proto})
			arr := adsm.AllocArray[int64](cl, 8)
			_, err := cl.Run(func(w *adsm.Worker) {
				for i := 0; i < 10; i++ {
					got := arr.UpdateLocked(w, 3, 2, func(v int64) int64 { return v + 1 })
					if got < 1 {
						t.Errorf("worker %d: UpdateLocked returned %d before any store", w.ID(), got)
					}
				}
				want := int64(100 + w.ID())
				arr.UpdateLocked(w, 4, 5, func(v int64) int64 {
					if v > want {
						return v
					}
					return want
				})
				w.Barrier()
				if got := arr.At(w, 2); got != 40 {
					t.Errorf("worker %d: counter = %d, want 40", w.ID(), got)
				}
				if got := arr.At(w, 5); got != 103 {
					t.Errorf("worker %d: max = %d, want 103", w.ID(), got)
				}
				w.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- span-vs-per-word equivalence matrix ---

// spanKernel is a banded stencil with write-only and read-only intervals
// (the transport-equivalence program's discipline). cols selects the page
// geometry: 180 float64s per row leaves band boundaries mid-page, so the
// adaptive protocols see genuine write-write false sharing and spans
// start and end inside pages; 512 tiles one page per row, making every
// page single-writer — the shape whose fault/fetch pattern is fully
// barrier-determined, and therefore the only shape whose counters can be
// asserted under the wall-clock tcp transport.
type spanKernel struct {
	procs, rowsPer, iters int
	cols                  int
	grid                  adsm.Shared[float64]
	sum                   float64
}

func newSpanKernel(procs, cols int) *spanKernel {
	return &spanKernel{procs: procs, rowsPer: 3, iters: 3, cols: cols}
}

func (k *spanKernel) rows() int { return k.procs * k.rowsPer }

func (k *spanKernel) setup(cl *adsm.Cluster) {
	k.grid = adsm.AllocArrayPageAligned[float64](cl, k.rows()*k.cols)
}

func (k *spanKernel) body(w *adsm.Worker) {
	lo := w.ID() * k.rowsPer * k.cols
	hi := lo + k.rowsPer*k.cols
	up := make([]float64, k.cols)
	down := make([]float64, k.cols)

	// Write-only interval: seed the own band through a span.
	k.grid.Span(w, lo, hi, adsm.Write, func(i int, p []float64) {
		for j := range p {
			p[j] = float64(i + j)
		}
	})
	w.Barrier()

	for it := 0; it < k.iters; it++ {
		// Read-only interval: pull the neighbour boundary rows.
		if lo > 0 {
			k.grid.ReadAt(w, up, lo-k.cols)
		}
		if hi < k.grid.Len() {
			k.grid.ReadAt(w, down, hi)
		}
		w.Barrier()

		// Write-only interval: update the own band from its previous
		// values (a Write span exposes them) and the private edges.
		k.grid.Span(w, lo, hi, adsm.Write, func(i int, p []float64) {
			for j := range p {
				col := (i + j) % k.cols
				p[j] = (p[j] + up[col] + down[col] + float64(it)) / 2
			}
		})
		w.Barrier()
	}

	// Read-only scan: node 0 checksums the grid through a span.
	if w.ID() == 0 {
		s := 0.0
		k.grid.Span(w, 0, k.grid.Len(), adsm.Read, func(i int, p []float64) {
			for _, v := range p {
				s += v
			}
		})
		k.sum = s
	}
	w.Barrier()
}

func (k *spanKernel) run(t *testing.T, cfg adsm.Config, edit func(*core.Params)) (*adsm.Report, float64) {
	t.Helper()
	cl, err := adsm.NewClusterParams(cfg, edit)
	if err != nil {
		t.Fatal(err)
	}
	k.setup(cl)
	rep, err := cl.Run(k.body)
	if err != nil {
		t.Fatal(err)
	}
	return rep, k.sum
}

// TestSpanVsPerWordEquivalence is the matrix the API redesign is pinned
// by: the span fast path must change cost, never semantics. For every
// protocol × {sim, tcp}, the same kernel runs with the fast path on and
// degraded to per-word checks (core's test-only PerWordSpans engine);
// checksums must match bit for bit everywhere.
//
// Under the simulator the kernel uses mid-page band boundaries (genuine
// write-write false sharing, spans starting and ending inside pages) and
// every protocol counter — faults, twins, diffs, write traffic, virtual
// time — must be identical.
//
// Under tcp the kernel tiles one page per row and counters (messages,
// bytes, faults, diffs) are asserted for MW and HLRC, whose pattern the
// barriers fully determine on single-writer pages; SW and the adaptive
// pair time their ownership decisions in wall-clock, so they are pinned
// by checksum only (the same split the sim-vs-tcp equivalence check
// uses). Mid-page sharing cannot be counter-asserted on a real transport
// at all: a mid-interval write-fault fetch races the concurrent boundary
// writer on the serving node, making the fetched applied-vector — and
// with it later fault counts — timing-defined run-to-run, span path or
// not (verified by running one configuration repeatedly).
//
// The apps/ subtests run the two banded stencil apps whose inner loops
// the span migration restructured most, SOR and Shallow, on quick inputs
// under every protocol, and require identical checksums, Stats and
// virtual time.
func TestSpanVsPerWordEquivalence(t *testing.T) {
	const procs = 4
	for _, proto := range adsm.Protocols() {
		for _, tr := range []adsm.Transport{adsm.SimTransport, adsm.TCPTransport} {
			name := fmt.Sprintf("%v/%v", proto, tr)
			t.Run(name, func(t *testing.T) {
				// Prefetch off in the fast arm: the per-word degrade path
				// has no spans to plan, so this matrix isolates the
				// per-page bookkeeping batching. The fetch batching is
				// pinned by TestPrefetchEquivalence (on vs off, checksums).
				base := adsm.Config{Procs: procs, Protocol: proto, Transport: tr}
				cols := 180
				if tr == adsm.TCPTransport {
					cols = 512
				}

				fast := newSpanKernel(procs, cols)
				fastRep, fastSum := fast.run(t, base, serialSpans)

				slow := newSpanKernel(procs, cols)
				slowRep, slowSum := slow.run(t, base, perWordSpans)

				if fastSum != slowSum {
					t.Fatalf("checksum diverged: fast %v, per-word %v", fastSum, slowSum)
				}
				if fastSum == 0 {
					t.Fatal("kernel computed nothing")
				}
				switch {
				case tr == adsm.SimTransport:
					if !reflect.DeepEqual(fastRep.Stats, slowRep.Stats) {
						t.Errorf("protocol counters diverged:\nfast:     %+v\nper-word: %+v",
							fastRep.Stats, slowRep.Stats)
					}
					if fastRep.Elapsed != slowRep.Elapsed {
						t.Errorf("virtual time diverged: fast %v, per-word %v",
							fastRep.Elapsed, slowRep.Elapsed)
					}
				case proto == adsm.MW || proto == adsm.HLRC:
					if fastRep.Stats.Messages != slowRep.Stats.Messages {
						t.Errorf("message count diverged: fast %d, per-word %d",
							fastRep.Stats.Messages, slowRep.Stats.Messages)
					}
					if fastRep.Stats.DataBytes != slowRep.Stats.DataBytes {
						t.Errorf("byte count diverged: fast %d, per-word %d",
							fastRep.Stats.DataBytes, slowRep.Stats.DataBytes)
					}
					if fastRep.Stats.ReadFaults != slowRep.Stats.ReadFaults ||
						fastRep.Stats.WriteFaults != slowRep.Stats.WriteFaults {
						t.Errorf("fault counts diverged: fast %d/%d, per-word %d/%d",
							fastRep.Stats.ReadFaults, fastRep.Stats.WriteFaults,
							slowRep.Stats.ReadFaults, slowRep.Stats.WriteFaults)
					}
					if fastRep.Stats.DiffsCreated != slowRep.Stats.DiffsCreated {
						t.Errorf("diff counts diverged: fast %d, per-word %d",
							fastRep.Stats.DiffsCreated, slowRep.Stats.DiffsCreated)
					}
				}
			})
		}
	}
	for _, name := range []string{"SOR", "Shallow"} {
		for _, proto := range adsm.Protocols() {
			t.Run("apps/"+name+"/"+proto.String(), func(t *testing.T) {
				fastApp, fastRep, err := runAppEngine(name, procs, proto, serialSpans)
				if err != nil {
					t.Fatalf("span: %v", err)
				}
				slowApp, slowRep, err := runAppEngine(name, procs, proto, perWordSpans)
				if err != nil {
					t.Fatalf("per-word: %v", err)
				}
				if fastApp.Result() != slowApp.Result() {
					t.Errorf("checksum diverged: span %v, per-word %v", fastApp.Result(), slowApp.Result())
				}
				if !reflect.DeepEqual(fastRep.Stats, slowRep.Stats) {
					t.Errorf("protocol counters diverged:\nspan:     %+v\nper-word: %+v",
						fastRep.Stats, slowRep.Stats)
				}
				if fastRep.Elapsed != slowRep.Elapsed {
					t.Errorf("virtual time diverged: span %v, per-word %v", fastRep.Elapsed, slowRep.Elapsed)
				}
			})
		}
	}
}
