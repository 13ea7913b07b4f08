// Package apps implements the paper's eight benchmark applications on the
// DSM API: Red-Black SOR and TSP (kernels), Water and Barnes-Hut (SPLASH),
// IS and 3D-FFT (NAS), Shallow (NCAR) and ILINK (computational genetics,
// rebuilt as a synthetic kernel with the access pattern the paper
// describes — see DESIGN.md for the substitution argument).
//
// Inputs are scaled so the full evaluation matrix runs in minutes of host
// time; per-work-unit compute costs are calibrated to SPARC-20-era speeds
// so each application's computation-to-communication ratio stays in the
// paper's regime. Every application computes a checksum so runs can be
// verified against the sequential execution and across protocols.
package apps

import (
	"fmt"

	"adsm"
)

// App is one benchmark application instance. The same instance is used
// for exactly one cluster run: Setup allocates its shared data, Body is
// the SPMD program, and Result returns the checksum computed by processor
// 0 after the final barrier.
type App interface {
	// Name is the paper's application name.
	Name() string
	// Sync describes the synchronization used: "l" (locks), "b"
	// (barriers), or "l,b" (Table 1).
	Sync() string
	// DataSet describes the input (Table 1).
	DataSet() string
	// Setup allocates shared memory; must run before the cluster does.
	Setup(cl *adsm.Cluster)
	// Body is the SPMD program executed by every worker.
	Body(w *adsm.Worker)
	// Result returns the run's checksum (valid after the run completes).
	Result() float64
}

// Factory builds a fresh application instance. quick selects reduced
// inputs for unit tests; the harness uses quick=false.
type Factory func(quick bool) App

// Registry lists the eight applications in the paper's Table 1 order.
var Registry = []struct {
	Name string
	New  Factory
}{
	{"SOR", func(q bool) App { return NewSOR(q) }},
	{"IS", func(q bool) App { return NewIS(q) }},
	{"TSP", func(q bool) App { return NewTSP(q) }},
	{"Water", func(q bool) App { return NewWater(q) }},
	{"3D-FFT", func(q bool) App { return NewFFT(q) }},
	{"Shallow", func(q bool) App { return NewShallow(q) }},
	{"Barnes", func(q bool) App { return NewBarnes(q) }},
	{"ILINK", func(q bool) App { return NewILINK(q) }},
}

// New builds the named application, or an error listing valid names.
func New(name string, quick bool) (App, error) {
	for _, e := range Registry {
		if e.Name == name {
			return e.New(quick), nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Run executes one application on a fresh cluster and returns the report.
func Run(factory Factory, cfg adsm.Config, quick bool) (App, *adsm.Report, error) {
	app := factory(quick)
	cl := adsm.NewCluster(cfg)
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("apps: %s under %v: %w", app.Name(), cfg.Protocol, err)
	}
	return app, rep, nil
}

// band returns the half-open row range [lo, hi) of worker id when rows are
// divided into procs contiguous bands.
func band(rows, procs, id int) (lo, hi int) {
	per := rows / procs
	ext := rows % procs
	lo = id*per + min(id, ext)
	hi = lo + per
	if id < ext {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// chkLock is the lock id reserved for checksum accumulation.
const chkLock = 255

// accumulate adds a worker's local checksum contribution into the shared
// slot under a lock (ordered, so it introduces no false sharing), keeping
// the result collection parallel instead of a serial full-memory scan.
func accumulate(w *adsm.Worker, slot adsm.Shared[float64], local float64) {
	w.Lock(chkLock)
	slot.Set(w, 0, slot.At(w, 0)+local)
	w.Unlock(chkLock)
}

// trianglePartition splits the outer index of a triangular double loop
// (for i; for j > i) so every processor gets about the same number of
// pairs, keeping the partition contiguous (banded sharing).
func trianglePartition(n, procs, id int) (lo, hi int) {
	total := n * (n - 1) / 2
	target := func(k int) int { return total * k / procs }
	cum, b := 0, 0
	bounds := make([]int, procs+1)
	for i := 0; i < n; i++ {
		for b < procs && cum >= target(b) {
			bounds[b] = i
			b++
		}
		cum += n - 1 - i
	}
	for ; b <= procs; b++ {
		bounds[b] = n
	}
	return bounds[id], bounds[id+1]
}
