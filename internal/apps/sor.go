package apps

import (
	"fmt"
	"time"

	"adsm"
)

// SOR is Red-Black successive over-relaxation on a 2D grid. The grid is
// divided into bands of rows; communication is nearest-neighbour across
// band boundaries. With a 512-column float64 grid each row is exactly one
// page, so there is no write-write false sharing (Table 2: "large" write
// granularity, 0% falsely shared), and the number of modified elements
// grows over the iterations (the boundary values diffuse inward), which is
// what drives WFS+WG's mid-run MW->SW switch in the paper.
//
// SOR is the flagship span kernel: each red-black sweep snapshots the two
// neighbour rows with bulk reads and updates the own row through a single
// ReadWrite span, so the protocol work is one fault check per row (page)
// where the per-word version paid one per element. The fault sequence per
// row — read row i-1, read row i+1, read-then-write row i — is exactly
// what the per-word loop produced.
type SOR struct {
	rows, cols, iters int
	elemCost          time.Duration

	grid   adsm.Shared[float64]
	chk    adsm.Shared[float64]
	result float64
}

// NewSOR builds the SOR instance (quick: 64x512x6; full: 192x512x24).
func NewSOR(quick bool) *SOR {
	s := &SOR{rows: 192, cols: 512, iters: 24, elemCost: 800 * time.Nanosecond}
	if quick {
		s.rows, s.iters = 64, 6
	}
	return s
}

func (s *SOR) Name() string { return "SOR" }
func (s *SOR) Sync() string { return "b" }
func (s *SOR) DataSet() string {
	return fmt.Sprintf("%dx%d grid, %d iters", s.rows, s.cols, s.iters)
}
func (s *SOR) Result() float64 { return s.result }

// Setup allocates the grid page-aligned so each row is one page. The
// sweep's span callbacks index p across the whole row (the left/right
// stencil neighbours live in the same chunk), which is only sound when a
// row never splits into chunks — assert the geometry rather than rely on
// the constant.
func (s *SOR) Setup(cl *adsm.Cluster) {
	if s.cols*8 != adsm.PageSize {
		panic(fmt.Sprintf("sor: %d-column rows do not tile %d-byte pages", s.cols, adsm.PageSize))
	}
	s.grid = adsm.AllocArrayPageAligned[float64](cl, s.rows*s.cols)
	s.chk = adsm.AllocArrayPageAligned[float64](cl, 1)
}

// row returns the element range [lo, hi) of row i.
func (s *SOR) row(i int) (lo, hi int) { return i * s.cols, (i + 1) * s.cols }

// Body runs the red-black sweeps.
func (s *SOR) Body(w *adsm.Worker) {
	lo, hi := band(s.rows, w.Procs(), w.ID())

	// Boundary initialization: edges at 1.0, interior 0 (allocation is
	// zeroed). Each band initializes its own edge cells, one write span
	// per row.
	for i := lo; i < hi; i++ {
		rlo, rhi := s.row(i)
		full := i == 0 || i == s.rows-1
		s.grid.Span(w, rlo, rhi, adsm.Write, func(i0 int, p []float64) {
			for k := range p {
				j := i0 + k - rlo
				if full || j == 0 || j == s.cols-1 {
					p[k] = 1.0
				}
			}
		})
	}
	w.Barrier()

	ulo, uhi := lo, hi
	if ulo == 0 {
		ulo = 1
	}
	if uhi == s.rows {
		uhi = s.rows - 1
	}
	up := make([]float64, s.cols)
	down := make([]float64, s.cols)
	for it := 0; it < s.iters; it++ {
		for phase := 0; phase < 2; phase++ {
			// Halo hint: declare the phase's whole input extent — the
			// band plus its two boundary rows — up front, so the
			// span-prefetch engine fetches both boundary rows (the only
			// invalid pages) in a single overlapped Multicall instead of
			// two serial faults mid-sweep. Under the serial reference
			// engine the hint is a no-op and the mid-sweep faults fire
			// exactly as before.
			// The other-parity boundary values the sweep actually uses
			// are barrier-stable, so fetch time changes no value read.
			if ulo < uhi {
				w.Prefetch(s.grid.Window((ulo-1)*s.cols, (uhi+1)*s.cols))
			}
			for i := ulo; i < uhi; i++ {
				// Snapshot the neighbour rows (red-black never reads a
				// value updated in the same phase, so the snapshot equals
				// the per-element read order), then relax the own row in
				// place. Row i±1 values of this phase's parity are
				// untouched; row i's left/right neighbours within the span
				// are the other colour, also untouched.
				s.grid.ReadAt(w, up, i*s.cols-s.cols)
				s.grid.ReadAt(w, down, (i+1)*s.cols)
				rlo, rhi := s.row(i)
				s.grid.Span(w, rlo, rhi, adsm.ReadWrite, func(i0 int, p []float64) {
					for j := 1 + (i+phase)%2; j < s.cols-1; j += 2 {
						k := rlo + j - i0
						p[k] = 0.25 * (up[j] + down[j] + p[k-1] + p[k+1])
					}
				})
				w.Compute(s.elemCost * time.Duration(s.cols/2))
			}
			w.Barrier()
		}
	}

	// Each band sums its own rows (already local) through a read span.
	sum := 0.0
	s.grid.Span(w, lo*s.cols, hi*s.cols, adsm.Read, func(_ int, p []float64) {
		for _, v := range p {
			sum += v
		}
	})
	accumulate(w, s.chk, sum)
	w.Barrier()
	if w.ID() == 0 {
		s.result = s.chk.At(w, 0)
	}
	w.Barrier()
}
