package harness

import (
	"fmt"
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
// time; the tcp side reruns the adaptive cell over the real in-process
// mesh to pin the meta-protocol end to end on a live transport.

// AdaptStatic is one static protocol's virtual time for a kernel.
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

	// TCPWall and TCPSwitches come from the adaptive rerun over the
	// in-process TCP mesh (zero when the tcp side was not requested).
	TCPWall     time.Duration
	TCPSwitches int64
}

// WinOrTie reports whether the adaptive run is within 5% of the best
// static protocol (or beats it).
func (c AdaptCell) WinOrTie() bool { return c.Ratio >= 0.95 }

// AdaptSweepData runs the adaptive experiment over the full suite. The
// sim cells come from the shared matrix cache (checksums verified against
// the sequential run like every cell); the tcp rerun verifies its
// checksum here with a timing-dependent tolerance — adaptive ownership
// decisions time out in wall clock on a real transport, so low-order
// float bits may reassociate.
func (m *Matrix) AdaptSweepData(tcp bool) []AdaptCell {
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
		}
		if cell.Adaptive.Elapsed > 0 {
			cell.Ratio = float64(cell.BestElapsed) / float64(cell.Adaptive.Elapsed)
		}
		if tcp {
			seq := m.seqResult(e.Name)
			app, err := apps.New(e.Name, m.Quick)
			if err != nil {
				panic(err)
			}
			cfg := adsm.Config{Procs: m.Procs, Protocol: adsm.Adaptive,
				HomePolicy: m.Home, Transport: adsm.TCPTransport}
			cl := adsm.NewCluster(cfg)
			app.Setup(cl)
			start := time.Now()
			rep, err := cl.Run(app.Body)
			cell.TCPWall = time.Since(start)
			if err != nil {
				panic(fmt.Sprintf("harness: adapt sweep %s under tcp: %v", e.Name, err))
			}
			tol := tolerance(e.Name)
			if tol < 1e-4 {
				tol = 1e-4
			}
			if !closeEnough(app.Result(), seq.checksum, tol) {
				panic(fmt.Sprintf("harness: adapt sweep %s under tcp: checksum %v != sequential %v",
					e.Name, app.Result(), seq.checksum))
			}
			cell.TCPSwitches = rep.Stats.PolicySwitches
		}
		out = append(out, cell)
	}
	return out
}

// AdaptSweep renders the adaptive experiment: every kernel's best static
// protocol against the adaptive run, the win-or-tie verdict, the switch
// counters, and the tcp rerun.
func (m *Matrix) AdaptSweep() string {
	cells := m.AdaptSweepData(true)
	t := &table{header: []string{"App", "Best static", "Best (ms)", "Adaptive (ms)", "Ratio",
		"Switches", "toSW", "toMW", "toHLRC", "TCP wall (ms)", "TCP switches"}}
	wins := 0
	for _, c := range cells {
		if c.WinOrTie() {
			wins++
		}
		s := c.Adaptive.Stats
		t.add(c.App, c.Best.String(),
			fmt.Sprintf("%.2f", float64(c.BestElapsed.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(c.Adaptive.Elapsed.Microseconds())/1000),
			fmt.Sprintf("%.3f", c.Ratio),
			fmt.Sprint(s.PolicySwitches),
			fmt.Sprint(s.SwitchToSW), fmt.Sprint(s.SwitchToMW), fmt.Sprint(s.SwitchToHLRC),
			fmt.Sprintf("%.1f", float64(c.TCPWall.Microseconds())/1000),
			fmt.Sprint(c.TCPSwitches))
	}
	return "Adaptive experiment: per-page protocol switching vs the best static protocol per kernel\n" +
		fmt.Sprintf("(ratio = best static / adaptive virtual time; >= 0.95 is win-or-tie: %d/%d kernels qualify;\n", wins, len(cells)) +
		" tcp columns rerun the adaptive cell over the real in-process mesh, checksum-verified)\n\n" + t.String()
}
