package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"adsm"
	"adsm/internal/harness"
)

// procs is the cluster size of every tcp workload. Four nodes is the
// smallest cluster that still has 3-hop forwards, N-way multicalls and
// more than two falsely-sharing writers; see README.md for the sizing.
const procs = 4

// tcpConfig is the cluster every tcp workload and probe runs unless it
// says otherwise: the adaptive protocol on the default in-process loopback
// mesh (two lanes plus the region lane), no modelled compute sleeps.
func tcpConfig(n int, proto adsm.Protocol) adsm.Config {
	return adsm.Config{Procs: n, Protocol: proto, Transport: adsm.TCPTransport}
}

// protocols lists the six protocols under the labels metric names use
// (the registry's "WFS+WG" is not a legal metric name).
var protocols = []struct {
	label string
	p     adsm.Protocol
}{
	{"MW", adsm.MW}, {"SW", adsm.SW}, {"WFS", adsm.WFS},
	{"WFSWG", adsm.WFSWG}, {"HLRC", adsm.HLRC}, {"adaptive", adsm.Adaptive},
}

// size scales one measured pass of a workload.
type size struct {
	seed    int64
	seconds float64 // how long the pass should measure
	quick   bool    // reduced inputs, for the smoke test
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a set of reported numbers by name.
type metrics map[string]metric

// set records a metric. Reporting a name twice or a value that is not a
// finite number is a bug in the benchmark, not a measurement.
func (m metrics) set(name string, value float64, unit string) {
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q reported twice", name))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("benchmark: metric %q is %v", name, value))
	}
	m[name] = metric{Value: value, Unit: unit}
}

// pass is what one measured pass of a workload yields: its oracle
// verdicts, the raw timings the end-to-end metrics are computed from, and
// the per-layer observations of that workload.
type pass struct {
	attempted, failed int
	errs              []string // what failed, first few only

	unitsPerRound int       // units of work in one round: app runs, kv ops, matrix cells
	setup         []float64 // seconds, one per set-up
	rounds        []float64 // seconds of timed region, one per round
	opNS          []float64 // serve: every op's latency in nanoseconds, sorted

	rep repTotals // summed public Reports of the timed clusters

	appRunMS  map[string][]float64 // apps: Cluster.Run wall per app
	elapsedS  []float64            // apps: sum of Report.Elapsed per round
	kvOps     [3][]float64         // serve, traced: latency per op kind, nanoseconds, sorted
	kvQ1      float64              // serve: ops/s over each worker's first quarter of ops
	kvQ4      float64              // serve: ops/s over each worker's last quarter
	speedup   map[string]float64   // paper_sim: geomean virtual speedup per protocol
	vsBest    float64              // paper_sim: geomean best-static / adaptive virtual time
	cpuS      float64              // process CPU seconds spent in the pass
	wallS     float64              // wall seconds of the pass
	allocMB   float64
	mallocs   float64
	gcCycles  float64
	gcPauseMS float64
}

// fail counts one failed unit of work and keeps the first few reasons.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// moreRounds reports whether a round-based workload should start another
// round: always one, then as long as at least half of a typical round
// still fits into the pass.
func (p *pass) moreRounds(start time.Time, sz size) bool {
	if len(p.rounds) == 0 {
		return true
	}
	return time.Since(start).Seconds()+median(p.rounds)/2 < sz.seconds
}

// A workload runs one measured pass. tr is nil on the untraced pass.
type workload struct {
	name string
	run  func(sz size, tr *tracer) *pass
}

// workloads lists the five workloads in BENCHMARK.json's order. Later
// issues refer to these names.
var workloads = []workload{
	{"apps_sw", func(sz size, tr *tracer) *pass {
		return runApps([]string{"SOR", "IS", "3D-FFT", "Shallow"}, sz, tr)
	}},
	{"apps_mw", func(sz size, tr *tracer) *pass {
		return runApps([]string{"TSP", "Water", "Barnes", "ILINK"}, sz, tr)
	}},
	{"serve_read", func(sz size, tr *tracer) *pass {
		return runServe(serveMix{readPct: 90, deletePct: 2, opsPerSecond: 2000}, sz, tr)
	}},
	{"serve_write", func(sz size, tr *tracer) *pass {
		return runServe(serveMix{readPct: 10, deletePct: 5, opsPerSecond: 1250}, sz, tr)
	}},
	{"paper_sim", runPaperSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measured runs one pass of w and adds what the process spent on it: CPU
// time, allocation and garbage collection, read from outside the pass.
func measured(w workload, sz size, tr *tracer) *pass {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	p := w.run(sz, tr)
	p.wallS = time.Since(t0).Seconds()
	p.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.mallocs = float64(m1.Mallocs - m0.Mallocs)
	p.gcCycles = float64(m1.NumGC - m0.NumGC)
	p.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return p
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on the calling process fails only for a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// endToEnd computes the metrics a user of the system would see from the
// untraced pass. A driver wants every one from every workload and none
// of them 0, so each workload restates its one timing in the terms of the
// metrics it has no measurement of its own for: ops_per_s is units of work
// per solve_s everywhere, and op_p99_us is a percentile over operations
// only on the serving workloads, which time each one. The others run 4-56
// units a round, too few for a tail, and state the median time per unit.
// derived names these restatements.
func endToEnd(p *pass) metrics {
	m := metrics{}
	solve := median(p.rounds)
	p99 := solve / float64(p.unitsPerRound) * 1e6
	if len(p.opNS) > 0 {
		p99 = quantile(p.opNS, 0.99) / 1e3
	}
	m.set("setup_s", median(p.setup), "s")
	m.set("solve_s", solve, "s")
	m.set("ops_per_s", float64(p.unitsPerRound)/solve, "1/s")
	m.set("op_p99_us", p99, "us")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	return m
}

// derived reports whether the end-to-end metric only restates another one
// on the workload, so that gating on it would count one measurement twice:
// the serving workloads are gated on ops_per_s and op_p99_us, the others
// on solve_s.
func derived(workload, metric string) bool {
	if strings.HasPrefix(workload, "serve_") {
		return metric == "solve_s"
	}
	return metric == "ops_per_s" || metric == "op_p99_us"
}

// repTotals sums the public Reports of a pass's timed clusters.
type repTotals struct {
	s                   adsm.Stats
	hwmControl, hwmBulk int64
}

func (r *repTotals) add(rep *adsm.Report) {
	a, b := &r.s, rep.Stats
	a.Messages += b.Messages
	a.WireFrames += b.WireFrames
	a.WireBytes += b.WireBytes
	a.WireEncodeNS += b.WireEncodeNS
	a.ReadFaults += b.ReadFaults
	a.WriteFaults += b.WriteFaults
	a.PageFetches += b.PageFetches
	a.OneSidedReads += b.OneSidedReads
	a.OneSidedFallbacks += b.OneSidedFallbacks
	a.TwinsCreated += b.TwinsCreated
	a.DiffsCreated += b.DiffsCreated
	a.DiffsApplied += b.DiffsApplied
	a.DiffBytes += b.DiffBytes
	a.OwnershipRequests += b.OwnershipRequests
	a.OwnershipRefusals += b.OwnershipRefusals
	a.LockAcquires += b.LockAcquires
	a.Barriers += b.Barriers
	a.PolicySwitches += b.PolicySwitches
	a.GCRuns += b.GCRuns
	a.PrefetchPages += b.PrefetchPages
	a.SerialFallbacks += b.SerialFallbacks
	if h := b.LaneQueueHWM; len(h) > 1 {
		r.hwmControl = max(r.hwmControl, h[0])
		r.hwmBulk = max(r.hwmBulk, h[1])
	}
}

// perLayer computes the workload-scoped per-layer metrics of the traced
// pass. A workload measures only some of them: kv.* on a serving run, its
// own four apps.run_ms.*, sim.virtual_speedup.* on paper_sim. A driver
// wants every name from every workload, so with pad set the others read 0.
// They are all times, rates and ratios, which cannot measure 0, so a 0
// always says "does not apply".
func perLayer(p, untraced *pass, pad bool) metrics {
	m := metrics{}
	// scoped reports a metric only some workloads measure; value is 0
	// where the pass holds no samples for it.
	scoped := func(applies bool, name string, value float64, unit string) {
		if applies || pad {
			m.set(name, value, unit)
		}
	}
	us := func(sorted []float64, q float64) float64 { return quantile(sorted, q) / 1e3 }

	m.set("rounds", float64(len(p.rounds)), "count")
	m.set("solve_p75_s", quantile(sortedCopy(p.rounds), 0.75), "s")
	m.set("trace.overhead_pct", 100*(median(p.rounds)-median(untraced.rounds))/median(untraced.rounds), "%")

	for _, name := range harness.AppNames() {
		scoped(len(p.appRunMS[name]) > 0, "apps.run_ms."+name, median(p.appRunMS[name]), "ms")
	}
	scoped(len(p.elapsedS) > 0, "apps.elapsed_s", median(p.elapsedS), "s")

	serve := len(p.opNS) > 0
	scoped(serve, "op_p50_us", us(p.opNS, 0.5), "us")
	scoped(serve, "op_p999_us", us(p.opNS, 0.999), "us")
	for kind, name := range []string{"get", "put", "delete"} {
		scoped(serve, "kv."+name+"_p50_us", us(p.kvOps[kind], 0.5), "us")
		if name != "delete" { // too few deletes in a quarter-length pass for a tail
			scoped(serve, "kv."+name+"_p99_us", us(p.kvOps[kind], 0.99), "us")
		}
	}
	scoped(serve, "kv.ops_per_s_q1", p.kvQ1, "1/s")
	scoped(serve, "kv.ops_per_s_q4", p.kvQ4, "1/s")
	scoped(serve, "kv.decay", ratio(p.kvQ4, p.kvQ1), "x")

	for _, proto := range protocols {
		scoped(p.speedup != nil, "sim.virtual_speedup."+proto.label, p.speedup[proto.label], "x")
	}
	scoped(p.speedup != nil, "sim.adaptive_vs_best", p.vsBest, "x")

	s := p.rep.s
	units := float64(p.unitsPerRound * len(p.rounds))
	m.set("rep.msgs", float64(s.Messages), "count")
	m.set("rep.wire_frames", float64(s.WireFrames), "count")
	m.set("rep.wire_bytes", float64(s.WireBytes), "B")
	m.set("rep.encode_ns_per_frame", ratio(float64(s.WireEncodeNS), float64(s.WireFrames)), "ns")
	m.set("rep.read_faults", float64(s.ReadFaults), "count")
	m.set("rep.write_faults", float64(s.WriteFaults), "count")
	m.set("rep.page_fetches", float64(s.PageFetches), "count")
	m.set("rep.onesided_hit_rate", ratio(float64(s.OneSidedReads), float64(s.OneSidedReads+s.OneSidedFallbacks)), "ratio")
	m.set("rep.twins", float64(s.TwinsCreated), "count")
	m.set("rep.diffs_created", float64(s.DiffsCreated), "count")
	m.set("rep.diffs_applied", float64(s.DiffsApplied), "count")
	m.set("rep.diff_bytes", float64(s.DiffBytes), "B")
	m.set("rep.own_requests", float64(s.OwnershipRequests), "count")
	m.set("rep.own_refusal_rate", ratio(float64(s.OwnershipRefusals), float64(s.OwnershipRequests)), "ratio")
	m.set("rep.lock_acquires", float64(s.LockAcquires), "count")
	m.set("rep.barriers", float64(s.Barriers), "count")
	m.set("rep.policy_switches", float64(s.PolicySwitches), "count")
	m.set("rep.gc_runs", float64(s.GCRuns), "count")
	m.set("rep.prefetch_pages", float64(s.PrefetchPages), "count")
	m.set("rep.serial_fallbacks", float64(s.SerialFallbacks), "count")
	m.set("rep.lane_hwm_control", float64(p.rep.hwmControl), "count")
	m.set("rep.lane_hwm_bulk", float64(p.rep.hwmBulk), "count")
	m.set("rep.msgs_per_op", ratio(float64(s.Messages), units), "count")
	m.set("rep.bytes_per_op", ratio(float64(s.WireBytes), units), "B")

	m.set("proc.cpu_s", p.cpuS, "s")
	m.set("proc.cpu_util", ratio(p.cpuS, p.wallS*float64(runtime.NumCPU())), "ratio")
	m.set("proc.alloc_mb", p.allocMB, "MB")
	m.set("proc.allocs_per_op", ratio(p.mallocs, units), "count")
	m.set("proc.gc_cycles", p.gcCycles, "count")
	m.set("proc.gc_pause_ms", p.gcPauseMS, "ms")
	return m
}
