package apps

import (
	"math"
	"math/rand"
	"testing"
)

// newtonSqrt is Barnes' square root as it stood: 20 Newton steps from
// z = x. It is the oracle sqrt must match bit for bit.
func newtonSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// TestBarnesSqrtBitExact: sqrt gives the 20-step loop's result bit for bit
// over a million log-uniform samples in [1e-3, 1e8], the range Barnes'
// softened r² lies far inside, and at zero and below.
func TestBarnesSqrtBitExact(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), -1, -1e-300, -1e300, math.Inf(-1), 1e-3, 0.05, 1, 2, 1e8}
	rng := rand.New(rand.NewSource(153))
	lo, hi := math.Log(1e-3), math.Log(1e8)
	for range 1 << 20 {
		xs = append(xs, math.Exp(lo+(hi-lo)*rng.Float64()))
	}
	bad := 0
	for _, x := range xs {
		if got, want := sqrt(x), newtonSqrt(x); math.Float64bits(got) != math.Float64bits(want) {
			if bad++; bad <= 5 {
				t.Errorf("sqrt(%v) = %v, the Newton loop gives %v", x, got, want)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d samples differ", bad, len(xs))
	}
}

// val is FFT's spectral value as the compute phase computed it per point,
// the oracle for the tables it reads now.
func val(it, x, y, z int) float64 {
	return math.Sin(float64(it+1)*0.1+float64(x)*0.01) +
		math.Cos(float64(y)*0.02+float64(z)*0.03)
}

// TestFFTTablesBitExact: the sine and cosine tables FFT's compute phase
// reads give val's value bit for bit, for every point and iteration of the
// full input, in every slab of a 4-way split.
func TestFFTTablesBitExact(t *testing.T) {
	f := NewFFT(false)
	for p := 0; p < 4; p++ {
		zlo, zhi := band(f.n, 4, p)
		cosYZ := cosTable(f.n, zlo, zhi)
		for it := 0; it < f.iters; it++ {
			sinX := sinTable(it, f.n)
			for z := zlo; z < zhi; z++ {
				for y := 0; y < f.n; y++ {
					for x := 0; x < f.n; x++ {
						got, want := sinX[x]+cosYZ[(z-zlo)*f.n+y], val(it, x, y, z)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("it %d, point (%d,%d,%d): tables give %v, val %v", it, x, y, z, got, want)
						}
					}
				}
			}
		}
	}
}
