package apps

import (
	"fmt"
	"math"
	"time"

	"adsm"
)

// FFT is the NAS 3D-FFT kernel's sharing skeleton: a complex n^3 grid
// partitioned in z-slabs. Each iteration a processor recomputes its slab
// of A (fully overwriting its pages — the "large granularity" of Table 2),
// then performs the transpose into its slab of B, reading from every other
// processor's slab of A: pure producer-consumer communication. A small
// shared residual array, updated without locks at distinct offsets, is the
// one write-write falsely shared page with tiny writes that the paper
// reports (0.03% of pages, 28-byte modifications).
//
// The slab overwrite is one write span (one fault per slab page instead of
// one per point); the transpose writes its B slab through a span while
// reading A per element — the read stride is n^2 complex values, the
// pattern spans cannot help with.
type FFT struct {
	n     int // grid edge: n^3 points
	iters int

	pointCost time.Duration

	a, b   adsm.Shared[float64] // n^3 complex values (2 float64 each)
	chk    adsm.Shared[float64] // one page of per-proc residuals (the small-FS page)
	result float64
}

// NewFFT builds the FFT instance (quick: 16^3 x3; full: 32^3 x6 as in the
// paper's Figure 3).
func NewFFT(quick bool) *FFT {
	f := &FFT{n: 32, iters: 6, pointCost: 40 * time.Microsecond}
	if quick {
		f.n, f.iters = 16, 3
	}
	return f
}

func (f *FFT) Name() string { return "3D-FFT" }
func (f *FFT) Sync() string { return "b" }
func (f *FFT) DataSet() string {
	return fmt.Sprintf("%dx%dx%d grid, %d iterations", f.n, f.n, f.n, f.iters)
}
func (f *FFT) Result() float64 { return f.result }

// Setup allocates the two grids and the residual page.
func (f *FFT) Setup(cl *adsm.Cluster) {
	pts := f.n * f.n * f.n
	f.a = adsm.AllocArrayPageAligned[float64](cl, pts*2)
	f.b = adsm.AllocArrayPageAligned[float64](cl, pts*2)
	f.chk = adsm.AllocArrayPageAligned[float64](cl, adsm.PageSize/8)
}

// re returns the element index of the real part of point (x,y,z); the
// imaginary part follows at re+1.
func (f *FFT) re(x, y, z int) int { return 2 * ((z*f.n+y)*f.n + x) }

// The compute phase produces a deterministic "spectral" value at point
// (x,y,z) of iteration it: sin((it+1)*0.1 + x*0.01) + cos(y*0.02 + z*0.03).
// Body reads the two terms from tables built from those arguments, once
// per iteration and once per run, rather than calling math.Sin and
// math.Cos per point.

// sinTable holds the value's sine term for iteration it, by x.
func sinTable(it, n int) []float64 {
	t := make([]float64, n)
	for x := range t {
		t[x] = math.Sin(float64(it+1)*0.1 + float64(x)*0.01)
	}
	return t
}

// cosTable holds the value's cosine term for the slab's planes
// zlo..zhi-1, at (z-zlo)*n + y.
func cosTable(n, zlo, zhi int) []float64 {
	t := make([]float64, (zhi-zlo)*n)
	for z := zlo; z < zhi; z++ {
		for y := 0; y < n; y++ {
			t[(z-zlo)*n+y] = math.Cos(float64(y)*0.02 + float64(z)*0.03)
		}
	}
	return t
}

// Body runs the iterations.
func (f *FFT) Body(w *adsm.Worker) {
	zlo, zhi := band(f.n, w.Procs(), w.ID())
	slabPts := (zhi - zlo) * f.n * f.n
	n2 := f.n * f.n

	cosYZ := cosTable(f.n, zlo, zhi)
	for it := 0; it < f.iters; it++ {
		// Local FFT butterflies on our slab of A: every element of our
		// slab's pages is overwritten through one write span.
		sinX := sinTable(it, f.n)
		f.a.Span(w, f.re(0, 0, zlo), f.re(0, 0, zhi), adsm.Write, func(i0 int, p []float64) {
			for k := range p {
				e := i0 + k
				pt := e / 2
				x, y, z := pt%f.n, (pt/f.n)%f.n, pt/n2
				v := sinX[x] + cosYZ[(z-zlo)*f.n+y]
				if e%2 != 0 {
					v = -v
				}
				p[k] = v
			}
		})
		w.Compute(f.pointCost * time.Duration(slabPts))
		w.Barrier()

		// Transpose: B(x,y,z) = A(z,y,x). Our writes stay in our slab of
		// B (a write span); our reads sweep every other processor's slab
		// of A with an n^2-element stride, element by element.
		var local float64
		f.b.Span(w, f.re(0, 0, zlo), f.re(0, 0, zhi), adsm.Write, func(i0 int, p []float64) {
			// Chunks are page-aligned and the slab starts on an even
			// element, so every chunk holds whole (re, im) pairs.
			for k := 0; k < len(p); k += 2 {
				pt := (i0 + k) / 2
				x, y, z := pt%f.n, (pt/f.n)%f.n, pt/n2
				v := f.a.At(w, f.re(z, y, x))
				p[k] = v
				p[k+1] = -v
				local += v
			}
		})
		w.Compute(f.pointCost / 4 * time.Duration(slabPts))

		// Per-processor residual at a distinct offset of one shared page,
		// written without synchronization: small write-write false sharing.
		f.chk.Set(w, w.ID(), local)
		w.Barrier()
	}

	if w.ID() == 0 {
		var sum float64
		for p := 0; p < w.Procs(); p++ {
			sum += f.chk.At(w, p)
		}
		// Sample B to fold the transpose result into the checksum.
		for z := 0; z < f.n; z += 3 {
			sum += f.b.At(w, f.re(z%f.n, (z*7)%f.n, z))
		}
		f.result = sum
	}
	w.Barrier()
}
