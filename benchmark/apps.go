package main

import (
	"math"
	"math/rand"
	"time"

	"adsm"
	"adsm/internal/apps"
)

// appOracle is the checksum of the application's one-processor run on the
// simulator, the reference every parallel run must reproduce.
func appOracle(name string, quick bool) (float64, error) {
	app, err := apps.New(name, quick)
	if err != nil {
		return 0, err
	}
	cl := adsm.NewCluster(adsm.Config{Procs: 1})
	app.Setup(cl)
	if _, err := cl.Run(app.Body); err != nil {
		return 0, err
	}
	return app.Result(), nil
}

// checksumMatches applies the evaluation harness's tolerance: Water's
// force reduction reassociates with lock arrival order, every other
// application must agree almost exactly.
func checksumMatches(name string, got, want float64) bool {
	tol := 1e-8
	if name == "Water" {
		tol = 1e-4
	}
	return math.Abs(got-want) <= math.Abs(want)*tol+1e-12
}

// runApps measures rounds of the named applications: each round builds a
// fresh 4-node tcp cluster per application, in an order drawn from the
// seed, runs it and checks its checksum against the sequential oracle.
// A round's timed region is the summed wall time of its Cluster.Run calls.
func runApps(names []string, sz size, tr *tracer) *pass {
	p := &pass{unitsPerRound: len(names), appRunMS: map[string][]float64{}}
	main := tr.buf(1 << 12)
	want := map[string]float64{}
	for _, name := range names {
		sum, err := appOracle(name, sz.quick)
		if err != nil {
			p.attempted++
			p.fail("%s: sequential oracle: %v", name, err)
			return p
		}
		want[name] = sum
	}

	rng := rand.New(rand.NewSource(sz.seed))
	start := time.Now()
	for p.moreRounds(start, sz) {
		var setup, solve, elapsed time.Duration
		for _, i := range rng.Perm(len(names)) {
			name := names[i]
			p.attempted++
			app, err := apps.New(name, sz.quick)
			if err != nil {
				p.fail("%v", err)
				continue
			}
			settle()
			t0 := time.Now()
			cl, err := adsm.NewClusterErr(tcpConfig(procs, adsm.Adaptive))
			if err != nil {
				p.fail("%s: %v", name, err)
				continue
			}
			t1 := time.Now()
			app.Setup(cl)
			t2 := time.Now()
			rep, err := cl.Run(app.Body)
			t3 := time.Now()
			main.add("adsm", "NewCluster", 0, 0, -1, t0, t1)
			main.add("apps", name+".Setup", 0, 0, -1, t1, t2)
			main.add("adsm", "Cluster.Run "+name, 0, 0, -1, t2, t3)
			setup += t2.Sub(t0)
			solve += t3.Sub(t2)
			if err != nil {
				p.fail("%s: %v", name, err)
				continue
			}
			if !checksumMatches(name, app.Result(), want[name]) {
				p.fail("%s: checksum %v, sequential run gives %v", name, app.Result(), want[name])
			}
			main.add("benchmark", "oracle "+name, 0, 0, -1, t3, time.Now())
			elapsed += rep.Elapsed
			p.rep.add(rep)
			p.appRunMS[name] = append(p.appRunMS[name], float64(t3.Sub(t2))/1e6)
		}
		p.setup = append(p.setup, setup.Seconds())
		p.rounds = append(p.rounds, solve.Seconds())
		p.elapsedS = append(p.elapsedS, elapsed.Seconds())
	}
	return p
}
