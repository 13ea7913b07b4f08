// Package harness reproduces the paper's evaluation: Tables 1-4 and
// Figures 2-3 of Amza et al. (HPCA 1997), plus the ablation sweeps called
// out in DESIGN.md. Runs are cached so tables that share runs (speedups,
// memory, communication) execute the 8-apps x 4-protocols matrix once.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"adsm"
	"adsm/internal/apps"
)

// Matrix runs and caches the full evaluation.
type Matrix struct {
	Quick bool
	Procs int
	// Protos restricts the protocol columns of the cross-protocol tables
	// (Figure 2, Table 4, the JSON report). Empty means every protocol.
	Protos []adsm.Protocol
	// Home selects the home-assignment policy used by every cell (zero
	// value: static, the paper's layout). The home sweep varies it per
	// cell independently of this default.
	Home adsm.HomePolicy

	mu     sync.Mutex
	seq    map[string]*runResult
	par    map[string]*runResult
	serve  map[string]ServeCell
	faults map[string]FaultCell
}

type runResult struct {
	report   *adsm.Report
	checksum float64
}

// NewMatrix builds an evaluation matrix (quick inputs for tests; the paper
// configuration is 8 processors, full inputs).
func NewMatrix(quick bool) *Matrix {
	return &Matrix{
		Quick: quick,
		Procs: 8,
		seq:   make(map[string]*runResult),
		par:   make(map[string]*runResult),
	}
}

// protocols returns the protocol columns of the cross-protocol tables:
// the paper's presentation order (Figure 2: MW, WFS+WG, WFS, SW) followed
// by later registrations (HLRC, ...) in registration order.
func (m *Matrix) protocols() []adsm.Protocol {
	if len(m.Protos) > 0 {
		return m.Protos
	}
	paper := []adsm.Protocol{adsm.MW, adsm.WFSWG, adsm.WFS, adsm.SW}
	out := append([]adsm.Protocol(nil), paper...)
	for _, p := range adsm.Protocols() {
		inPaper := false
		for _, q := range paper {
			if p == q {
				inPaper = true
				break
			}
		}
		if !inPaper {
			out = append(out, p)
		}
	}
	return out
}

// run executes one (app, protocol, procs) cell with optional config hooks.
func (m *Matrix) run(name string, procs int, proto adsm.Protocol, mutate func(*adsm.Config)) *runResult {
	app, err := apps.New(name, m.Quick)
	if err != nil {
		panic(err)
	}
	cfg := adsm.Config{Procs: procs, Protocol: proto, HomePolicy: m.Home}
	if mutate != nil {
		mutate(&cfg)
	}
	cl := adsm.NewCluster(cfg)
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	if err != nil {
		panic(fmt.Sprintf("harness: %s under %v: %v", name, proto, err))
	}
	return &runResult{report: rep, checksum: app.Result()}
}

// Sequential returns (caching) the 1-processor run of an app.
func (m *Matrix) Sequential(name string) *adsm.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.seq[name]; ok {
		return r.report
	}
	r := m.run(name, 1, adsm.MW, nil)
	m.seq[name] = r
	return r.report
}

// Parallel returns (caching) the Procs-processor run of an app under a
// protocol with the matrix's default home policy, verifying its checksum
// against the sequential execution.
func (m *Matrix) Parallel(name string, proto adsm.Protocol) *adsm.Report {
	return m.ParallelHome(name, proto, m.Home)
}

// ParallelHome returns (caching) the Procs-processor run of an app under
// a (protocol, home policy) pair, verifying its checksum against the
// sequential execution.
func (m *Matrix) ParallelHome(name string, proto adsm.Protocol, home adsm.HomePolicy) *adsm.Report {
	key := fmt.Sprintf("%s|%v|%v", name, proto, home)
	m.mu.Lock()
	if r, ok := m.par[key]; ok {
		m.mu.Unlock()
		return r.report
	}
	m.mu.Unlock()

	seq := m.seqResult(name)
	r := m.run(name, m.Procs, proto, adsm.WithHomePolicy(home))
	if !closeEnough(r.checksum, seq.checksum, tolerance(name)) {
		panic(fmt.Sprintf("harness: %s under %v/%v homes: checksum %v != sequential %v",
			name, proto, home, r.checksum, seq.checksum))
	}
	m.mu.Lock()
	m.par[key] = r
	m.mu.Unlock()
	return r.report
}

func (m *Matrix) seqResult(name string) *runResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.seq[name]; ok {
		return r
	}
	r := m.run(name, 1, adsm.MW, nil)
	m.seq[name] = r
	return r
}

// tolerance is the per-app relative checksum tolerance: Water's force
// reduction order depends on lock arrival order, so its float sums
// reassociate; everything else must match almost exactly.
func tolerance(name string) float64 {
	if name == "Water" {
		return 1e-4
	}
	return 1e-8
}

func closeEnough(a, b, tol float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	mag := b
	if mag < 0 {
		mag = -mag
	}
	return diff <= mag*tol+1e-12
}

// Speedup returns T(1)/T(Procs) for an app under a protocol (Figure 2).
func (m *Matrix) Speedup(name string, proto adsm.Protocol) float64 {
	seq := m.Sequential(name).Elapsed
	par := m.Parallel(name, proto).Elapsed
	return float64(seq) / float64(par)
}

// AppNames lists the applications in Table 1 order.
func AppNames() []string {
	names := make([]string, 0, len(apps.Registry))
	for _, e := range apps.Registry {
		names = append(names, e.Name)
	}
	return names
}

// --- table rendering ---

type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// Table1 reproduces Table 1: applications, input data sets,
// synchronization, and sequential execution time.
func (m *Matrix) Table1() string {
	t := &table{header: []string{"Program", "Data set", "Sync", "Time (s)"}}
	for _, e := range apps.Registry {
		app := e.New(m.Quick)
		rep := m.Sequential(e.Name)
		t.add(e.Name, app.DataSet(), app.Sync(), seconds(rep.Elapsed))
	}
	return "Table 1: applications, input data sets, synchronization, sequential time\n\n" + t.String()
}

// Table2 reproduces Table 2: write granularity and the percentage of
// write-write falsely shared pages, measured under the MW protocol.
func (m *Matrix) Table2() string {
	t := &table{header: []string{"Application", "Write granularity", "Avg diff (B)", "% WW falsely shared"}}
	for _, e := range apps.Registry {
		rep := m.Parallel(e.Name, adsm.MW)
		sh := rep.Sharing
		t.add(e.Name, granularityClass(sh.AvgDiffBytes, sh.MaxDiffBytes),
			fmt.Sprintf("%.0f", sh.AvgDiffBytes),
			fmt.Sprintf("%.1f", sh.FSPercent))
	}
	return "Table 2: write granularity and write-write false sharing (measured, MW)\n\n" + t.String()
}

// granularityClass buckets the measured diff sizes like the paper's
// qualitative labels.
func granularityClass(avg float64, max int) string {
	switch {
	case avg == 0:
		return "n/a"
	case avg >= 3072:
		return "large"
	case avg >= 1024:
		if float64(max) > 3*avg {
			return "variable"
		}
		return "med-large"
	case avg >= 256:
		if float64(max) > 6*avg {
			return "variable"
		}
		return "medium"
	default:
		return "small"
	}
}

// Figure2 reproduces Figure 2: speedups on 8 processors, one column per
// protocol (the paper's four plus HLRC and adaptive).
func (m *Matrix) Figure2() string {
	header := []string{"Application"}
	for _, proto := range m.protocols() {
		header = append(header, proto.String())
	}
	header = append(header, "best")
	t := &table{header: header}
	for _, e := range apps.Registry {
		cells := []string{e.Name}
		best, bestName := 0.0, ""
		for _, proto := range m.protocols() {
			s := m.Speedup(e.Name, proto)
			cells = append(cells, fmt.Sprintf("%.2f", s))
			if s > best {
				best, bestName = s, proto.String()
			}
		}
		cells = append(cells, bestName)
		t.add(cells...)
	}
	return fmt.Sprintf("Figure 2: speedup on %d processors\n\n%s", m.Procs, t.String())
}

// Table3 reproduces Table 3: twin+diff memory for MW, WFS+WG and WFS
// (cumulative allocation, plus the live high-water mark).
func (m *Matrix) Table3() string {
	t := &table{header: []string{"Program", "Protocol", "Twin+diff (MB)", "Peak live (MB)"}}
	for _, e := range apps.Registry {
		for _, proto := range []adsm.Protocol{adsm.MW, adsm.WFSWG, adsm.WFS} {
			rep := m.Parallel(e.Name, proto)
			t.add(e.Name, proto.String(),
				fmt.Sprintf("%.2f", rep.MemoryMB()),
				fmt.Sprintf("%.2f", float64(rep.Stats.MaxLiveTwinDiff)/(1<<20)))
		}
	}
	return "Table 3: memory consumption for MW, WFS+WG, WFS\n\n" + t.String()
}

// Table4 reproduces Table 4: messages, ownership requests, and data moved.
func (m *Matrix) Table4() string {
	t := &table{header: []string{"Program", "Protocol", "Msgs (10^3)", "Owner (10^3)", "Data (MB)"}}
	for _, e := range apps.Registry {
		for _, proto := range m.protocols() {
			rep := m.Parallel(e.Name, proto)
			t.add(e.Name, proto.String(),
				fmt.Sprintf("%.2f", float64(rep.Stats.Messages)/1000),
				fmt.Sprintf("%.2f", float64(rep.Stats.OwnershipRequests)/1000),
				fmt.Sprintf("%.2f", rep.DataMB()))
		}
	}
	return "Table 4: messages, ownership requests, and data exchanged\n\n" + t.String()
}

// Figure3Data runs 3D-FFT under one protocol with the diff timeline
// enabled and returns the report.
func (m *Matrix) Figure3Data(proto adsm.Protocol) *adsm.Report {
	app, err := apps.New("3D-FFT", m.Quick)
	if err != nil {
		panic(err)
	}
	cl := adsm.NewCluster(adsm.Config{Procs: m.Procs, Protocol: proto, CollectDiffTimeline: true})
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	if err != nil {
		panic(err)
	}
	return rep
}

// Figure3 reproduces Figure 3: the live diff count over time for 3D-FFT
// under MW, WFS+WG and WFS, rendered as a coarse series plus summary.
func (m *Matrix) Figure3() string {
	var b strings.Builder
	b.WriteString("Figure 3: diff creation and garbage collection in 3D-FFT\n\n")
	t := &table{header: []string{"Protocol", "Peak live diffs", "Final live diffs", "GC runs", "Diffs created"}}
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.WFSWG, adsm.WFS} {
		rep := m.Figure3Data(proto)
		peak := int64(0)
		for _, p := range rep.DiffTimeline {
			if p.LiveDiffs > peak {
				peak = p.LiveDiffs
			}
		}
		final := int64(0)
		if n := len(rep.DiffTimeline); n > 0 {
			final = rep.DiffTimeline[n-1].LiveDiffs
		}
		t.add(proto.String(), fmt.Sprint(peak), fmt.Sprint(final),
			fmt.Sprint(rep.Stats.GCRuns), fmt.Sprint(rep.Stats.DiffsCreated))
	}
	b.WriteString(t.String())
	return b.String()
}

// Figure3CSV renders the full timelines as CSV (time_us, live_diffs) for
// plotting, one section per protocol.
func (m *Matrix) Figure3CSV() string {
	var b strings.Builder
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.WFSWG, adsm.WFS} {
		rep := m.Figure3Data(proto)
		fmt.Fprintf(&b, "# protocol=%s\n", proto)
		b.WriteString("time_us,live_diffs\n")
		for _, p := range rep.DiffTimeline {
			fmt.Fprintf(&b, "%d,%d\n", p.T.Microseconds(), p.LiveDiffs)
		}
	}
	return b.String()
}

// AblationResult is one point of a parameter sweep.
type AblationResult struct {
	Param   string
	Value   string
	App     string
	Proto   adsm.Protocol
	Elapsed time.Duration
	Msgs    int64
}

// AblationQuantum sweeps the SW ownership quantum on Barnes (heavy
// write-write false sharing, so pages genuinely ping-pong): too small a
// quantum lets pages thrash, too large serializes transfers.
func (m *Matrix) AblationQuantum() []AblationResult {
	var out []AblationResult
	for _, q := range []time.Duration{100 * time.Microsecond, 1 * time.Millisecond, 8 * time.Millisecond} {
		r := m.run("Barnes", m.Procs, adsm.SW, func(c *adsm.Config) { c.OwnershipQuantum = q })
		out = append(out, AblationResult{
			Param: "quantum", Value: q.String(), App: "Barnes", Proto: adsm.SW,
			Elapsed: r.report.Elapsed, Msgs: r.report.Stats.Messages,
		})
	}
	return out
}

// AblationWGThreshold sweeps the WFS+WG diff-size threshold on 3D-FFT,
// whose diffs are page-sized: thresholds below the diff size adapt to SW
// (cheap whole-page moves), a threshold above it leaves every page in MW
// and re-introduces the diff overhead the paper describes.
func (m *Matrix) AblationWGThreshold() []AblationResult {
	var out []AblationResult
	for _, th := range []int{2048, 3072, 8192} {
		r := m.run("3D-FFT", m.Procs, adsm.WFSWG, func(c *adsm.Config) { c.WGThreshold = th })
		out = append(out, AblationResult{
			Param: "wg-threshold", Value: fmt.Sprint(th), App: "3D-FFT", Proto: adsm.WFSWG,
			Elapsed: r.report.Elapsed, Msgs: r.report.Stats.Messages,
		})
	}
	return out
}

// AblationGCLimit sweeps the MW diff-space limit on 3D-FFT (the paper's
// Figure 3 subject): small pools collect at almost every barrier, large
// pools let whole-page diff chains accumulate.
func (m *Matrix) AblationGCLimit() []AblationResult {
	var out []AblationResult
	for _, lim := range []int64{256 << 10, 1 << 20, 8 << 20} {
		r := m.run("3D-FFT", m.Procs, adsm.MW, func(c *adsm.Config) { c.DiffSpaceLimit = lim })
		out = append(out, AblationResult{
			Param: "gc-limit", Value: fmt.Sprintf("%dKB", lim>>10), App: "3D-FFT", Proto: adsm.MW,
			Elapsed: r.report.Elapsed, Msgs: r.report.Stats.Messages,
		})
	}
	return out
}

// homeSweepApps are the applications the home sweep measures: the banded
// stencil codes whose flush locality the home placement directly controls.
func homeSweepApps() []string { return []string{"SOR", "Shallow"} }

// homeSweepProtos are the home-based protocols (the ones that consult the
// home policy at all).
func homeSweepProtos() []adsm.Protocol { return []adsm.Protocol{adsm.SW, adsm.HLRC} }

// HomeSweepCell is one (app, protocol, home policy) measurement of the
// home-placement sweep.
type HomeSweepCell struct {
	App    string
	Proto  adsm.Protocol
	Home   adsm.HomePolicy
	Report *adsm.Report
}

// HomeSweepData runs (with caching and checksum verification) the
// app x protocol x home-policy sweep over every home policy.
func (m *Matrix) HomeSweepData() []HomeSweepCell {
	var out []HomeSweepCell
	for _, name := range homeSweepApps() {
		for _, proto := range homeSweepProtos() {
			for _, home := range adsm.HomePolicies() {
				out = append(out, HomeSweepCell{
					App:    name,
					Proto:  proto,
					Home:   home,
					Report: m.ParallelHome(name, proto, home),
				})
			}
		}
	}
	return out
}

// HomeSweep renders the home-placement sweep: for each home-based
// protocol and home policy, the virtual time, traffic, and HLRC flush
// locality (remote flushes vs diffs retired at a local home).
func (m *Matrix) HomeSweep() string {
	t := &table{header: []string{"App", "Protocol", "Homes", "Time (s)", "Msgs",
		"Data (MB)", "Flushes", "Flush (MB)", "Local diffs", "Binds"}}
	for _, cell := range m.HomeSweepData() {
		s := cell.Report.Stats
		t.add(cell.App, cell.Proto.String(), cell.Home.String(),
			seconds(cell.Report.Elapsed),
			fmt.Sprint(s.Messages),
			fmt.Sprintf("%.2f", cell.Report.DataMB()),
			fmt.Sprint(s.HomeFlushes),
			fmt.Sprintf("%.2f", float64(s.HomeFlushBytes)/(1<<20)),
			fmt.Sprint(s.HomeLocalDiffs),
			fmt.Sprint(s.HomeBinds))
	}
	return "Home sweep: flush locality under each home-assignment policy\n\n" + t.String()
}

// Ablations renders all parameter sweeps.
func (m *Matrix) Ablations() string {
	t := &table{header: []string{"Sweep", "Value", "App", "Protocol", "Time (s)", "Msgs"}}
	var all []AblationResult
	all = append(all, m.AblationQuantum()...)
	all = append(all, m.AblationWGThreshold()...)
	all = append(all, m.AblationGCLimit()...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Param < all[j].Param })
	for _, r := range all {
		t.add(r.Param, r.Value, r.App, r.Proto.String(), seconds(r.Elapsed), fmt.Sprint(r.Msgs))
	}
	return "Ablations: protocol parameter sensitivity\n\n" + t.String()
}
