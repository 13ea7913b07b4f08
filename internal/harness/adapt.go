package harness

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"adsm"
	"adsm/internal/apps"
)

// The adaptive experiment (`dsmbench -exp adapt`): for every kernel of
// the suite, run the per-page adaptive meta-protocol next to every static
// protocol and report where the switching lands relative to the best
// static choice — the paper's claim is that one adaptive protocol tracks
// whichever static protocol each application (here: each page) wants,
// without the user picking it. The sim side is deterministic virtual
// time under the 1997 cost model; the tcp side is the wall matrix: every
// protocol, adaptive included, over the real in-process mesh (median of
// tcpRuns runs, each checksum-verified), where the adaptive cell runs
// under the wire cost profile. Any failed run (an error or a wrong
// checksum) fails the sweep.

// tcpRuns is how many times the wall matrix runs each cell; it reports
// the median.
const tcpRuns = 3

// AdaptStatic is one static protocol's time for a kernel: virtual time on
// the simulator, median wall time on the tcp mesh.
type AdaptStatic struct {
	Proto   adsm.Protocol
	Elapsed time.Duration
}

// AdaptCell is one kernel's adaptive-vs-static comparison.
type AdaptCell struct {
	App      string
	Adaptive *adsm.Report
	Statics  []AdaptStatic

	// Best is the fastest static protocol and BestElapsed its virtual
	// time — the oracle choice the adaptive run is measured against.
	Best        adsm.Protocol
	BestElapsed time.Duration
	// Ratio is BestElapsed / adaptive elapsed: 1.0 is an exact tie,
	// above 1 the adaptive run beats every static protocol, and >= 0.95
	// counts as win-or-tie (the success bar for the sweep).
	Ratio float64

	// The wall matrix: every static protocol's median wall time on the
	// tcp mesh, the fastest of them, the adaptive median (TCPWall), their
	// ratio (best static wall / adaptive wall) and the adaptive median
	// run's switch counters.
	TCPStatics  []AdaptStatic
	TCPBest     adsm.Protocol
	TCPBestWall time.Duration
	TCPWall     time.Duration
	TCPRatio    float64
	TCPStats    adsm.Stats
}

// WinOrTie reports whether the adaptive run is within 5% of the best
// static protocol (or beats it).
func (c AdaptCell) WinOrTie() bool { return c.Ratio >= 0.95 }

// AdaptSweepData runs the adaptive experiment over the full suite. The
// sim cells come from the shared matrix cache (checksums verified against
// the sequential run like every cell); the tcp cells verify their
// checksums here with a timing-dependent tolerance — adaptive ownership
// decisions and lock arrival orders vary in wall clock on a real
// transport, so low-order float bits may reassociate.
func (m *Matrix) AdaptSweepData() []AdaptCell {
	var out []AdaptCell
	for _, e := range apps.Registry {
		cell := AdaptCell{App: e.Name, Adaptive: m.Parallel(e.Name, adsm.Adaptive)}
		for _, proto := range m.protocols() {
			if proto == adsm.Adaptive {
				continue
			}
			rep := m.Parallel(e.Name, proto)
			cell.Statics = append(cell.Statics, AdaptStatic{Proto: proto, Elapsed: rep.Elapsed})
			if cell.BestElapsed == 0 || rep.Elapsed < cell.BestElapsed {
				cell.Best, cell.BestElapsed = proto, rep.Elapsed
			}
			wall, _ := m.tcpWall(e.Name, proto)
			cell.TCPStatics = append(cell.TCPStatics, AdaptStatic{Proto: proto, Elapsed: wall})
			if cell.TCPBestWall == 0 || wall < cell.TCPBestWall {
				cell.TCPBest, cell.TCPBestWall = proto, wall
			}
		}
		if cell.Adaptive.Elapsed > 0 {
			cell.Ratio = float64(cell.BestElapsed) / float64(cell.Adaptive.Elapsed)
		}
		var rep *adsm.Report
		cell.TCPWall, rep = m.tcpWall(e.Name, adsm.Adaptive)
		cell.TCPStats = rep.Stats
		cell.TCPRatio = float64(cell.TCPBestWall) / float64(cell.TCPWall)
		out = append(out, cell)
	}
	return out
}

// tcpWall runs one kernel under proto on the in-process tcp mesh tcpRuns
// times and returns the median wall time of Run and that run's report. It
// panics when a run fails: Run returned an error or the checksum did not
// match the sequential run.
func (m *Matrix) tcpWall(name string, proto adsm.Protocol) (time.Duration, *adsm.Report) {
	seq := m.seqResult(name)
	tol := max(tolerance(name), 1e-4)
	type run struct {
		wall time.Duration
		rep  *adsm.Report
	}
	runs := make([]run, tcpRuns)
	for i := range runs {
		app, err := apps.New(name, m.Quick)
		if err != nil {
			panic(err)
		}
		cl := adsm.NewCluster(adsm.Config{Procs: m.Procs, Protocol: proto,
			HomePolicy: m.Home, Transport: adsm.TCPTransport})
		app.Setup(cl)
		start := time.Now()
		rep, err := cl.Run(app.Body)
		runs[i] = run{time.Since(start), rep}
		if err != nil {
			panic(fmt.Sprintf("harness: adapt sweep %s/%v under tcp: %v", name, proto, err))
		}
		if got := app.Result(); !closeEnough(got, seq.checksum, tol) {
			panic(fmt.Sprintf("harness: adapt sweep %s/%v under tcp: checksum %v != sequential %v",
				name, proto, got, seq.checksum))
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.wall, b.wall) })
	mid := runs[len(runs)/2]
	return mid.wall, mid.rep
}

// AdaptSweep renders the adaptive experiment: every kernel's best static
// protocol against the adaptive run in virtual time, the win-or-tie
// verdict and the switch counters, then the same comparison in wall time
// on the tcp mesh.
func (m *Matrix) AdaptSweep() string {
	cells := m.AdaptSweepData()
	t := &table{header: []string{"App", "Best static", "Best (ms)", "Adaptive (ms)", "Ratio",
		"Switches", "toSW", "toMW", "toHLRC"}}
	w := &table{header: []string{"App"}}
	for _, s := range cells[0].TCPStatics {
		w.header = append(w.header, s.Proto.String())
	}
	w.header = append(w.header, "adaptive", "Best static", "Ratio", "toSW", "toMW", "toHLRC")
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
	wins, tcpWins := 0, 0
	for _, c := range cells {
		if c.WinOrTie() {
			wins++
		}
		if c.TCPRatio >= 0.95 {
			tcpWins++
		}
		s := c.Adaptive.Stats
		t.add(c.App, c.Best.String(),
			fmt.Sprintf("%.2f", float64(c.BestElapsed.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(c.Adaptive.Elapsed.Microseconds())/1000),
			fmt.Sprintf("%.3f", c.Ratio),
			fmt.Sprint(s.PolicySwitches),
			fmt.Sprint(s.SwitchToSW), fmt.Sprint(s.SwitchToMW), fmt.Sprint(s.SwitchToHLRC))
		row := []string{c.App}
		for _, st := range c.TCPStatics {
			row = append(row, ms(st.Elapsed))
		}
		ts := c.TCPStats
		row = append(row, ms(c.TCPWall), c.TCPBest.String(), fmt.Sprintf("%.3f", c.TCPRatio),
			fmt.Sprint(ts.SwitchToSW), fmt.Sprint(ts.SwitchToMW), fmt.Sprint(ts.SwitchToHLRC))
		w.add(row...)
	}
	return "Adaptive experiment: per-page protocol switching vs the best static protocol per kernel\n" +
		fmt.Sprintf("(ratio = best static / adaptive virtual time; >= 0.95 is win-or-tie: %d/%d kernels qualify)\n\n", wins, len(cells)) +
		t.String() +
		fmt.Sprintf("\nWall matrix: %d-node in-process tcp mesh, median of %d checksum-verified runs per cell (ms)\n", m.Procs, tcpRuns) +
		fmt.Sprintf("(ratio = best static wall / adaptive wall; >= 0.95: %d/%d kernels)\n\n", tcpWins, len(cells)) +
		w.String()
}
