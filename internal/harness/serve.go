package harness

import (
	"fmt"
	"time"

	"adsm"
	"adsm/internal/kv"
)

// The serving experiment (`dsmbench -exp serve`): the zipfian key-value
// workload from internal/kv run under every protocol, on the
// simulator and (optionally) the real TCP mesh. Every cell's final-table
// checksum is verified against the host-side model replay — the same
// oracle for every protocol and transport, so a sim cell and its tcp
// rerun agree exactly or the sweep panics. A write-heavy arm reruns the
// MW cell with the mix inverted, so the Put side of the serving path is
// measured too.

// ServeOptions configures the serve sweep.
type ServeOptions struct {
	// Workload is the base (read-mostly) cell. Zero means the default:
	// kv.DefaultWorkload, scaled down under Quick.
	Workload kv.Workload
	// WriteHeavy is the write-heavy arm's workload, run under MW. Zero
	// means the base workload with the mix inverted (10% reads).
	WriteHeavy kv.Workload
}

// serveQuickWorkload scales the default workload down for test/CI runs.
func serveQuickWorkload() kv.Workload {
	wl := kv.DefaultWorkload()
	wl.Keys = 512
	wl.OpsPerWorker = 250
	return wl
}

func (m *Matrix) serveWorkloads(o ServeOptions) (base, heavy kv.Workload) {
	base = o.Workload
	if base.Keys == 0 {
		if m.Quick {
			base = serveQuickWorkload()
		} else {
			base = kv.DefaultWorkload()
		}
	}
	heavy = o.WriteHeavy
	if heavy.Keys == 0 {
		heavy = base
		heavy.ReadPct = 10
		heavy.DeletePct = 5
	}
	return base, heavy
}

// ServeCell is one serving measurement: a protocol on a transport, with
// throughput and latency tail from the merged per-op histogram and the
// model-verified final-table checksum.
type ServeCell struct {
	Proto     adsm.Protocol
	Home      adsm.HomePolicy
	Transport adsm.Transport
	Variant   string // "" for the base mix; "write-heavy" for the write-heavy arm

	Report *adsm.Report
	// Elapsed is virtual time for sim cells, wall clock for tcp cells.
	Elapsed  time.Duration
	Ops      int64
	Checksum uint64

	Mean, P50, P95, P99 time.Duration
}

// OpsPerSec is the cell's throughput against its own clock (virtual for
// sim, wall for tcp).
func (c ServeCell) OpsPerSec() float64 {
	if c.Elapsed <= 0 {
		return 0
	}
	return float64(c.Ops) / c.Elapsed.Seconds()
}

// serveRun executes one serving cell and verifies its checksum against
// the host-model oracle. The tcp cells run closed-loop (Interval 0): a
// wall clock cannot idle to a virtual arrival schedule, so their
// latencies are service times while the sim cells' include open-loop
// queueing.
func (m *Matrix) serveRun(wl kv.Workload, proto adsm.Protocol, tr adsm.Transport, variant string) ServeCell {
	if tr == adsm.TCPTransport {
		wl.Interval = 0
	}
	b := kv.NewBench(wl)
	cl := adsm.NewCluster(adsm.Config{Procs: m.Procs, Protocol: proto, HomePolicy: m.Home, Transport: tr})
	b.Setup(cl)
	start := time.Now()
	rep, err := cl.Run(b.Body)
	wall := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("harness: serve %v/%v: %v", proto, tr, err))
	}
	sum, ok := b.Checksum()
	if !ok {
		panic(fmt.Sprintf("harness: serve %v/%v: checksum not computed", proto, tr))
	}
	if want := wl.ExpectedChecksum(m.Procs); sum != want {
		panic(fmt.Sprintf("harness: serve %v/%v: table checksum %#x != model %#x",
			proto, tr, sum, want))
	}
	elapsed := rep.Elapsed
	if tr == adsm.TCPTransport {
		elapsed = wall
	}
	h := b.Hist()
	return ServeCell{
		Proto:     proto,
		Home:      m.Home,
		Transport: tr,
		Variant:   variant,
		Report:    rep,
		Elapsed:   elapsed,
		Ops:       b.Ops(),
		Checksum:  sum,
		Mean:      time.Duration(h.Mean()),
		P50:       time.Duration(h.Quantile(0.50)),
		P95:       time.Duration(h.Quantile(0.95)),
		P99:       time.Duration(h.Quantile(0.99)),
	}
}

// serveCached returns the cached cell for key, running it on a miss. The
// sim cells are deterministic (seeded schedules, virtual time), so the
// cache is exact like the matrix cells'; tcp cells carry wall clock and
// are cached only to avoid re-running within one report.
func (m *Matrix) serveCached(key string, run func() ServeCell) ServeCell {
	m.mu.Lock()
	if m.serve == nil {
		m.serve = make(map[string]ServeCell)
	}
	if c, ok := m.serve[key]; ok {
		m.mu.Unlock()
		return c
	}
	m.mu.Unlock()
	c := run()
	m.mu.Lock()
	m.serve[key] = c
	m.mu.Unlock()
	return c
}

// ServeSweepData runs the serving experiment: every protocol
// on the simulator (and with tcp set, on the real TCP mesh), plus the
// write-heavy arm under MW. Each cell's checksum is verified against the
// model oracle inside serveRun, which makes sim and tcp agree exactly in
// every cell.
func (m *Matrix) ServeSweepData(tcp bool, o ServeOptions) []ServeCell {
	base, heavy := m.serveWorkloads(o)
	var out []ServeCell
	for _, proto := range m.protocols() {
		out = append(out, m.serveCached(fmt.Sprintf("base|%v|sim", proto), func() ServeCell {
			return m.serveRun(base, proto, adsm.SimTransport, "")
		}))
		if tcp {
			out = append(out, m.serveCached(fmt.Sprintf("base|%v|tcp", proto), func() ServeCell {
				return m.serveRun(base, proto, adsm.TCPTransport, "")
			}))
		}
	}
	out = append(out, m.serveCached("heavy|MW|sim", func() ServeCell {
		return m.serveRun(heavy, adsm.MW, adsm.SimTransport, "write-heavy")
	}))
	if tcp {
		out = append(out, m.serveCached("heavy|MW|tcp", func() ServeCell {
			return m.serveRun(heavy, adsm.MW, adsm.TCPTransport, "write-heavy")
		}))
	}
	return out
}

// ServeSweep renders the serving experiment.
func (m *Matrix) ServeSweep(tcp bool, o ServeOptions) string {
	base, _ := m.serveWorkloads(o)
	cells := m.ServeSweepData(tcp, o)
	t := &table{header: []string{"Protocol", "Variant", "Transport", "ops/s", "mean (us)",
		"p50 (us)", "p95 (us)", "p99 (us)", "Msgs", "Data (MB)", "Switches"}}
	for _, c := range cells {
		variant := c.Variant
		if variant == "" {
			variant = "read-mostly"
		}
		s := c.Report.Stats
		t.add(c.Proto.String(), variant, c.Transport.String(),
			fmt.Sprintf("%.0f", c.OpsPerSec()),
			fmt.Sprintf("%.0f", float64(c.Mean.Nanoseconds())/1000),
			fmt.Sprintf("%.0f", float64(c.P50.Nanoseconds())/1000),
			fmt.Sprintf("%.0f", float64(c.P95.Nanoseconds())/1000),
			fmt.Sprintf("%.0f", float64(c.P99.Nanoseconds())/1000),
			fmt.Sprint(s.Messages),
			fmt.Sprintf("%.2f", c.Report.DataMB()),
			fmt.Sprint(s.PolicySwitches))
	}
	return fmt.Sprintf("Serve: zipfian key-value store, %d workers x %d ops (theta=%.2f, %d%% reads, %d keys)\n"+
		"(every cell's table checksum verified against the host-model replay;\n"+
		" sim cells are open-loop virtual time, tcp cells closed-loop wall clock)\n\n%s",
		m.Procs, base.OpsPerWorker, base.Theta, base.ReadPct, base.Keys, t.String())
}
