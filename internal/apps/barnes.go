package apps

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"adsm"
)

// Barnes is the SPLASH Barnes-Hut N-body simulation. The shared body
// array is partitioned round-robin; the octree (the cells) is private per
// processor, rebuilt each step from the shared bodies — the version the
// paper uses. Because the body partition is interleaved, every body page
// is written by every processor with small (24-48 byte) updates: the
// heavy write-write false sharing of Table 2 (61.9%), which makes the SW
// protocol collapse and MW/adaptive protocols win.
type Barnes struct {
	n     int
	steps int
	theta float64

	buildCost time.Duration
	interCost time.Duration

	bodies adsm.Shared[float64] // n records of bodyWords float64s
	chk    adsm.Shared[float64]
	result float64
}

// bodyWords is the float64 count per body record (128 bytes).
const bodyWords = 16

const (
	bPos  = 0
	bVel  = 3
	bAcc  = 6
	bMass = 9
)

// NewBarnes builds the Barnes-Hut instance (quick: 256 bodies x2; full:
// 1024 bodies x3 — the paper used 32K).
func NewBarnes(quick bool) *Barnes {
	b := &Barnes{n: 1024, steps: 3, theta: 0.6,
		buildCost: 5 * time.Microsecond, interCost: 4 * time.Microsecond}
	if quick {
		b.n, b.steps = 256, 2
	}
	return b
}

func (b *Barnes) Name() string { return "Barnes" }
func (b *Barnes) Sync() string { return "b" }
func (b *Barnes) DataSet() string {
	return fmt.Sprintf("%d bodies, %d steps", b.n, b.steps)
}
func (b *Barnes) Result() float64 { return b.result }

// Setup allocates the shared body array (32 bodies per page).
func (b *Barnes) Setup(cl *adsm.Cluster) {
	b.bodies = adsm.AllocArrayPageAligned[float64](cl, b.n*bodyWords)
	b.chk = adsm.AllocArrayPageAligned[float64](cl, 1)
}

// bfield returns the element index of field f of body i.
func bfield(i, f int) int { return i*bodyWords + f }

// --- private octree (plain Go memory, rebuilt per step per processor) ---

type otNode struct {
	center [3]float64
	half   float64
	mass   float64
	com    [3]float64
	body   int // body index for leaves, -1 for internal
	kids   [8]*otNode
	n      int
}

func newOT(center [3]float64, half float64) *otNode {
	return &otNode{center: center, half: half, body: -1}
}

func (t *otNode) insert(pos [3]float64, mass float64, idx int) {
	if t.n == 0 {
		t.body = idx
		t.com = pos
		t.mass = mass
		t.n = 1
		return
	}
	if t.n == 1 {
		// Split the leaf.
		old, oldPos, oldMass := t.body, t.com, t.mass
		t.body = -1
		t.push(oldPos, oldMass, old)
	}
	t.push(pos, mass, idx)
	for d := 0; d < 3; d++ {
		t.com[d] = (t.com[d]*t.mass + pos[d]*mass) / (t.mass + mass)
	}
	t.mass += mass
	t.n++
}

func (t *otNode) push(pos [3]float64, mass float64, idx int) {
	oct := 0
	var c [3]float64
	for d := 0; d < 3; d++ {
		if pos[d] >= t.center[d] {
			oct |= 1 << d
			c[d] = t.center[d] + t.half/2
		} else {
			c[d] = t.center[d] - t.half/2
		}
	}
	if t.kids[oct] == nil {
		t.kids[oct] = newOT(c, t.half/2)
	}
	t.kids[oct].insert(pos, mass, idx)
}

// force computes the acceleration on a body at pos using the
// Barnes-Hut theta criterion; returns the interaction count.
func (t *otNode) force(pos [3]float64, self int, theta float64, acc *[3]float64) int {
	if t == nil || t.n == 0 || (t.n == 1 && t.body == self) {
		return 0
	}
	var dr [3]float64
	var r2 float64
	for d := 0; d < 3; d++ {
		dr[d] = t.com[d] - pos[d]
		r2 += dr[d] * dr[d]
	}
	size := 2 * t.half
	if t.n == 1 || size*size < theta*theta*r2 {
		r2 += 0.05 // softening
		inv := t.mass / (r2 * sqrt(r2))
		for d := 0; d < 3; d++ {
			acc[d] += inv * dr[d]
		}
		return 1
	}
	cnt := 0
	for _, k := range t.kids {
		if k != nil {
			cnt += k.force(pos, self, theta, acc)
		}
	}
	return cnt
}

// sqrt is the fixed point of the 20 Newton steps from z = x that Barnes
// has always taken, bit for bit, in one step from math.Sqrt: the step
// lands where the loop settles (TestBarnesSqrtBitExact keeps the loop as
// the oracle). Above about 1e9 the loop has not settled after 20 steps,
// but Barnes' r² (bodies within ±50 units of the origin, plus softening)
// stays far below that.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := math.Sqrt(x)
	return 0.5 * (z + x/z)
}

// Body runs the simulation steps.
func (b *Barnes) Body(w *adsm.Worker) {
	// Processor 0 scatters deterministic initial positions.
	if w.ID() == 0 {
		rng := rand.New(rand.NewSource(31337))
		for i := 0; i < b.n; i++ {
			for d := 0; d < 3; d++ {
				b.bodies.Set(w, bfield(i, bPos+d), 100*rng.Float64()-50)
				b.bodies.Set(w, bfield(i, bVel+d), rng.Float64()-0.5)
			}
			b.bodies.Set(w, bfield(i, bMass), 1.0/float64(b.n))
		}
	}
	w.Barrier()

	const dt = 0.1
	for st := 0; st < b.steps; st++ {
		// Build a private tree from ALL shared bodies (every body page is
		// read by every processor).
		root := newOT([3]float64{0, 0, 0}, 128)
		pos := make([][3]float64, b.n)
		for i := 0; i < b.n; i++ {
			b.bodies.ReadAt(w, pos[i][:], bfield(i, bPos))
			root.insert(pos[i], b.bodies.At(w, bfield(i, bMass)), i)
		}
		w.Compute(b.buildCost * time.Duration(b.n))

		// Forces for our (round-robin interleaved) bodies: the
		// acceleration writes land on every body page — write-write
		// false sharing with small granularity.
		inters := 0
		for i := w.ID(); i < b.n; i += w.Procs() {
			var acc [3]float64
			inters += root.force(pos[i], i, b.theta, &acc)
			b.bodies.WriteAt(w, acc[:], bfield(i, bAcc))
		}
		w.Compute(b.interCost * time.Duration(inters))
		w.Barrier()

		// Integrate our bodies.
		for i := w.ID(); i < b.n; i += w.Procs() {
			for d := 0; d < 3; d++ {
				v := b.bodies.At(w, bfield(i, bVel+d)) + dt*b.bodies.At(w, bfield(i, bAcc+d))
				b.bodies.Set(w, bfield(i, bVel+d), v)
				b.bodies.Set(w, bfield(i, bPos+d), b.bodies.At(w, bfield(i, bPos+d))+dt*v)
			}
		}
		w.Barrier()
	}

	var sum float64
	for i := w.ID(); i < b.n; i += w.Procs() {
		for d := 0; d < 3; d++ {
			sum += b.bodies.At(w, bfield(i, bPos+d))
		}
	}
	accumulate(w, b.chk, sum)
	w.Barrier()
	if w.ID() == 0 {
		b.result = b.chk.At(w, 0)
	}
	w.Barrier()
}
