package main

import (
	"time"

	"adsm"
	"adsm/internal/apps"
	"adsm/internal/harness"
)

// runPaperSim measures the paper's configuration: rounds of a fresh
// evaluation matrix — eight applications under six protocols at eight
// processors, plus the eight sequential runs — on the simulator. The
// harness verifies every parallel checksum against the sequential run and
// panics on a miss, which this workload counts as a failed cell. It is
// the one workload where internal/sim does the work and tcp none, and its
// virtual times must repeat exactly from round to round.
func runPaperSim(sz size, tr *tracer) *pass {
	names := harness.AppNames()
	if sz.quick {
		names = []string{"SOR", "IS", "TSP"} // the smoke test's matrix
	}
	p := &pass{unitsPerRound: len(names) * (1 + len(protocols)), speedup: map[string]float64{}}
	main := tr.buf(1 << 12)

	// The set-up a simulator user pays: building each application's
	// 8-processor cluster and allocating its shared data.
	for i := 0; i < sz.setups(); i++ {
		settle()
		t0 := time.Now()
		for _, name := range names {
			app, err := apps.New(name, sz.quick)
			if err != nil {
				p.attempted++
				p.fail("%v", err)
				return p
			}
			app.Setup(adsm.NewCluster(adsm.Config{Procs: 8, Protocol: adsm.Adaptive}))
		}
		t1 := time.Now()
		main.add("adsm", "NewCluster+Setup per app (sim)", 0, 0, -1, t0, t1)
		p.setup = append(p.setup, t1.Sub(t0).Seconds())
	}

	var first map[string]time.Duration // virtual time per cell, from round one
	start := time.Now()
	for p.moreRounds(start, sz) {
		m := harness.NewMatrix(sz.quick)
		virtual := map[string]time.Duration{}
		cell := func(key string, run func() *adsm.Report) {
			p.attempted++
			defer func() {
				if r := recover(); r != nil {
					p.fail("%s: %v", key, r)
				}
			}()
			t0 := time.Now()
			rep := run()
			main.add("sim", "matrix cell "+key, 0, 0, -1, t0, time.Now())
			virtual[key] = rep.Elapsed
			p.rep.add(rep)
		}
		t0 := time.Now()
		for _, name := range names {
			cell(name+"/seq", func() *adsm.Report { return m.Sequential(name) })
			for _, proto := range protocols {
				cell(name+"/"+proto.label, func() *adsm.Report { return m.Parallel(name, proto.p) })
			}
		}
		p.rounds = append(p.rounds, time.Since(t0).Seconds())
		if first == nil {
			first = virtual
			continue
		}
		for key, v := range virtual {
			if v != first[key] {
				p.fail("%s: virtual time %v differs from round one's %v", key, v, first[key])
			}
		}
	}
	if p.failed > 0 {
		return p
	}

	// Virtual-time results, exact: the speedup of each protocol and how
	// adaptive compares with the best static protocol of each application
	// (1.0 means the paper's claim holds everywhere).
	var vsBest []float64
	for _, proto := range protocols {
		var sp []float64
		for _, name := range names {
			sp = append(sp, float64(first[name+"/seq"])/float64(first[name+"/"+proto.label]))
		}
		p.speedup[proto.label] = geomean(sp)
	}
	for _, name := range names {
		best := time.Duration(0)
		for _, proto := range protocols {
			if v := first[name+"/"+proto.label]; proto.p != adsm.Adaptive && (best == 0 || v < best) {
				best = v
			}
		}
		vsBest = append(vsBest, float64(best)/float64(first[name+"/adaptive"]))
	}
	p.vsBest = geomean(vsBest)
	return p
}
