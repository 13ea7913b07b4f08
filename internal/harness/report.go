package harness

import (
	"encoding/json"

	"adsm"
	"adsm/internal/apps"
)

// The machine-readable benchmark report: one cell per app x protocol with
// the quantities a perf trajectory needs (virtual execution time, message
// count, data volume). `dsmbench -exp json` emits it so successive PRs can
// archive BENCH_*.json files and diff them.

// BenchCell is one (application, protocol) measurement. The batching
// counters record how much of the coherence traffic travelled batched.
type BenchCell struct {
	App       string  `json:"app"`
	Protocol  string  `json:"protocol"`
	VirtualUS int64   `json:"virtual_us"`
	Speedup   float64 `json:"speedup"`
	Messages  int64   `json:"messages"`
	DataBytes int64   `json:"data_bytes"`
	GCRuns    int64   `json:"gc_runs"`
	TwinDiffB int64   `json:"twin_diff_bytes"`

	BatchedFetches  int64 `json:"batched_fetches"`
	PrefetchPages   int64 `json:"prefetch_pages"`
	SerialFallbacks int64 `json:"serial_fallbacks"`

	// Per-page protocol switch counters (nonzero only under the adaptive
	// meta-protocol; left out of static cells to keep old reports
	// byte-compatible).
	PolicySwitches int64 `json:"policy_switches,omitempty"`
	SwitchToSW     int64 `json:"switch_to_sw,omitempty"`
	SwitchToMW     int64 `json:"switch_to_mw,omitempty"`
	SwitchToHLRC   int64 `json:"switch_to_hlrc,omitempty"`
}

// BenchSeq is one application's sequential baseline.
type BenchSeq struct {
	App       string `json:"app"`
	VirtualUS int64  `json:"virtual_us"`
}

// BenchHomeCell is one (application, protocol, home policy) measurement
// of the home-placement sweep, carrying the flush-locality counters.
type BenchHomeCell struct {
	App            string `json:"app"`
	Protocol       string `json:"protocol"`
	Home           string `json:"home"`
	VirtualUS      int64  `json:"virtual_us"`
	Messages       int64  `json:"messages"`
	DataBytes      int64  `json:"data_bytes"`
	HomeFlushes    int64  `json:"home_flushes"`
	HomeFlushBytes int64  `json:"home_flush_bytes"`
	HomeLocalDiffs int64  `json:"home_local_diffs"`
	HomeBinds      int64  `json:"home_binds"`
}

// BenchServeCell is one protocol's serving measurement: the zipfian
// key-value workload on the simulator (sim-only, like the other archived
// cells, so the numbers are deterministic; `dsmbench -exp serve` adds the
// wall-clock tcp columns). Latencies are virtual microseconds from the
// merged per-op histogram; Checksum is the model-verified final-table
// checksum, identical across every protocol and transport by
// construction.
type BenchServeCell struct {
	Protocol  string `json:"protocol"`
	Variant   string `json:"variant,omitempty"`
	VirtualUS int64  `json:"virtual_us"`
	Ops       int64  `json:"ops"`
	Messages  int64  `json:"messages"`
	DataBytes int64  `json:"data_bytes"`
	MeanUS    int64  `json:"mean_us"`
	P50US     int64  `json:"p50_us"`
	P95US     int64  `json:"p95_us"`
	P99US     int64  `json:"p99_us"`
	Checksum  uint64 `json:"checksum"`

	PolicySwitches int64 `json:"policy_switches,omitempty"`
}

// BenchFaultCell is one protocol's fault-tolerance measurement: the
// recoverable stencil on the simulator, without ("plain") and with
// ("ckpt") barrier-checkpoint replication — the archived record of the
// checkpoint overhead in virtual time, messages, and data volume. The
// kill cells run on the TCP mesh with wall clocks and stay out of the
// archive; `dsmbench -exp faults` runs them.
type BenchFaultCell struct {
	Protocol    string `json:"protocol"`
	Scenario    string `json:"scenario"`
	VirtualUS   int64  `json:"virtual_us"`
	Messages    int64  `json:"messages"`
	DataBytes   int64  `json:"data_bytes"`
	Checkpoints int64  `json:"checkpoints,omitempty"`
	Checksum    uint64 `json:"checksum"`
}

// BenchReport is the full matrix measurement. Home records the default
// home policy the main Cells ran under (the home sweep in HomeCells
// varies it per cell); comparison tools use it to reject apples-to-
// oranges diffs.
type BenchReport struct {
	Procs      int              `json:"procs"`
	Quick      bool             `json:"quick"`
	Home       string           `json:"home"`
	Protocols  []string         `json:"protocols"`
	Homes      []string         `json:"homes"`
	Sequential []BenchSeq       `json:"sequential"`
	Cells      []BenchCell      `json:"cells"`
	HomeCells  []BenchHomeCell  `json:"home_cells"`
	ServeCells []BenchServeCell `json:"serve_cells"`
	FaultCells []BenchFaultCell `json:"fault_cells"`
}

// BenchReport runs (or reuses) the matrix and assembles the report.
func (m *Matrix) BenchReport() BenchReport {
	r := BenchReport{Procs: m.Procs, Quick: m.Quick, Home: m.Home.String()}
	for _, proto := range m.protocols() {
		r.Protocols = append(r.Protocols, proto.String())
	}
	r.Homes = adsm.HomePolicyNames()
	for _, e := range apps.Registry {
		seq := m.Sequential(e.Name)
		r.Sequential = append(r.Sequential, BenchSeq{
			App:       e.Name,
			VirtualUS: seq.Elapsed.Microseconds(),
		})
		for _, proto := range m.protocols() {
			rep := m.Parallel(e.Name, proto)
			r.Cells = append(r.Cells, BenchCell{
				App:             e.Name,
				Protocol:        proto.String(),
				VirtualUS:       rep.Elapsed.Microseconds(),
				Speedup:         m.Speedup(e.Name, proto),
				Messages:        rep.Stats.Messages,
				DataBytes:       rep.Stats.DataBytes,
				GCRuns:          rep.Stats.GCRuns,
				TwinDiffB:       rep.Stats.TwinBytes + rep.Stats.DiffBytes,
				BatchedFetches:  rep.Stats.BatchedFetches,
				PrefetchPages:   rep.Stats.PrefetchPages,
				SerialFallbacks: rep.Stats.SerialFallbacks,
				PolicySwitches:  rep.Stats.PolicySwitches,
				SwitchToSW:      rep.Stats.SwitchToSW,
				SwitchToMW:      rep.Stats.SwitchToMW,
				SwitchToHLRC:    rep.Stats.SwitchToHLRC,
			})
		}
	}
	for _, cell := range m.HomeSweepData() {
		s := cell.Report.Stats
		r.HomeCells = append(r.HomeCells, BenchHomeCell{
			App:            cell.App,
			Protocol:       cell.Proto.String(),
			Home:           cell.Home.String(),
			VirtualUS:      cell.Report.Elapsed.Microseconds(),
			Messages:       s.Messages,
			DataBytes:      s.DataBytes,
			HomeFlushes:    s.HomeFlushes,
			HomeFlushBytes: s.HomeFlushBytes,
			HomeLocalDiffs: s.HomeLocalDiffs,
			HomeBinds:      s.HomeBinds,
		})
	}
	for _, cell := range m.ServeSweepData(false, ServeOptions{}) {
		s := cell.Report.Stats
		r.ServeCells = append(r.ServeCells, BenchServeCell{
			Protocol:       cell.Proto.String(),
			Variant:        cell.Variant,
			VirtualUS:      cell.Elapsed.Microseconds(),
			Ops:            cell.Ops,
			Messages:       s.Messages,
			DataBytes:      s.DataBytes,
			MeanUS:         cell.Mean.Microseconds(),
			P50US:          cell.P50.Microseconds(),
			P95US:          cell.P95.Microseconds(),
			P99US:          cell.P99.Microseconds(),
			Checksum:       cell.Checksum,
			PolicySwitches: s.PolicySwitches,
		})
	}
	for _, cell := range m.FaultSweepData(false) {
		s := cell.Report.Stats
		r.FaultCells = append(r.FaultCells, BenchFaultCell{
			Protocol:    cell.Proto.String(),
			Scenario:    cell.Scenario,
			VirtualUS:   cell.Elapsed.Microseconds(),
			Messages:    s.Messages,
			DataBytes:   s.DataBytes,
			Checkpoints: s.Checkpoints,
			Checksum:    cell.Checksum,
		})
	}
	return r
}

// JSON renders the report with stable indentation (diff-friendly).
func (m *Matrix) JSON() ([]byte, error) {
	r := m.BenchReport()
	return json.MarshalIndent(r, "", "  ")
}
