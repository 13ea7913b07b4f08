// Package adsm is a software distributed shared memory (DSM) system
// implementing the adaptive lazy-release-consistency protocols of Amza,
// Cox, Dwarkadas and Zwaenepoel, "Software DSM Protocols that Adapt
// between Single Writer and Multiple Writer" (HPCA 1997).
//
// Six protocols are provided, the paper's four and two built on the same
// engine:
//
//   - MW — the TreadMarks multiple-writer protocol (twins and diffs),
//   - SW — a CVM-like single-writer protocol (page ownership, versions),
//   - WFS — adapts per page between SW and MW on write-write false
//     sharing, detected by the ownership refusal protocol,
//   - WFSWG — WFS plus write-granularity adaptation (3 KB threshold),
//   - HLRC — home-based LRC: diffs are flushed to a per-page home at
//     every release and faults fetch the whole page from it,
//   - Adaptive — a per-page meta-protocol that migrates each page between
//     MW, WFS, WFSWG and HLRC at barrier epochs.
//
// Programs are SPMD: the same body runs on every simulated processor,
// communicating only through the shared segment and the lock/barrier
// primitives, exactly like a TreadMarks application. Shared memory is
// typed — AllocArray reserves a Shared[T] array whose handle works on
// every worker — with per-element ops and a span/bulk fast path that
// resolves the coherence work once per page (see shared.go):
//
//	cl := adsm.NewCluster(adsm.Config{Procs: 8, Protocol: adsm.WFS})
//	x := adsm.AllocArray[uint64](cl, 1)
//	report, err := cl.Run(func(w *adsm.Worker) {
//	    w.Lock(0)
//	    x.Set(w, 0, x.At(w, 0)+1)
//	    w.Unlock(0)
//	    w.Barrier()
//	})
//
// The cluster is a deterministic discrete-event simulation calibrated to
// the paper's platform (8 SPARC-20s on 155 Mbps ATM: 1 ms small-message
// round trip, 1921 us remote page miss, 104 us twin, 179 us diff), so
// reports carry both the virtual execution time and the full protocol
// statistics needed to reproduce the paper's tables and figures.
package adsm

import (
	"fmt"
	"time"

	"adsm/internal/core"
	"adsm/internal/mem"
	"adsm/internal/sim"
	"adsm/internal/stats"
	"adsm/internal/transport"
)

// PageSize is the coherence unit (4096 bytes, as in the paper).
const PageSize = mem.PageSize

// Protocol selects the coherence protocol for a cluster. The set is
// fixed; the constants below are stable ids.
type Protocol = core.Protocol

const (
	// MW is the TreadMarks multiple-writer protocol.
	MW = core.MW
	// SW is the CVM-like single-writer protocol.
	SW = core.SW
	// WFS adapts between SW and MW based on write-write false sharing.
	WFS = core.WFS
	// WFSWG adapts based on false sharing and write granularity.
	WFSWG = core.WFSWG
	// HLRC is home-based lazy release consistency: writers eagerly flush
	// their diffs to a per-page home at every release, and faulting nodes
	// fetch the whole page from the home — no diff accumulation, no
	// garbage collection.
	HLRC = core.HLRC
	// Adaptive is the per-page adaptive meta-protocol: every page starts
	// under MW (the protocol that is never catastrophically wrong), and at
	// each barrier the manager watches the page's write notices and the
	// page facts every node reports on its arrival (first accesses, diff
	// sizes), migrating individual pages to WFS+WG (one stable writer,
	// who then writes without twins or diffs), to WFS (bulky writers that
	// take turns, where messages cost no more than bytes), to HLRC (many
	// writers every epoch), or back to MW (concurrent writers under
	// ownership). Switch decisions are broadcast on the barrier release so
	// all nodes flip a page at the same epoch; the manager learns nothing
	// but what the arrivals carry, so a multi-process mesh adapts as the
	// simulator does.
	Adaptive = core.Adaptive
)

// HomePolicy selects how pages are assigned to home nodes for the
// home-based protocols (SW request routing, HLRC diff flushing). The set
// is fixed; the constants below are stable ids. Protocols that never
// consult a home (MW, WFS, WFS+WG) ignore the setting.
type HomePolicy = core.Home

const (
	// StaticHomes places page pg at node pg % procs (the default).
	StaticHomes = core.HomeStatic
	// FirstTouchHomes binds a page's home at its first fault, agreed
	// cluster-wide through the allocator (node 0).
	FirstTouchHomes = core.HomeFirstTouch
	// BlockHomes assigns contiguous page ranges per processor, matching
	// band partitioning (SOR/Shallow row decompositions).
	BlockHomes = core.HomeBlock
)

// ParseHomePolicy resolves a home policy name — canonical or alias,
// case-insensitive — such as "static", "first-touch" or "blocked".
func ParseHomePolicy(name string) (HomePolicy, error) { return core.ParseHome(name) }

// HomePolicies lists every home policy in id order.
func HomePolicies() []HomePolicy { return core.Homes() }

// HomePolicyNames lists the canonical names of every home policy.
func HomePolicyNames() []string { return core.HomeNames() }

// WithHomePolicy returns a Config mutator selecting the home policy —
// convenient for sweeps that vary one dimension of an otherwise shared
// configuration (the harness home sweep uses it).
func WithHomePolicy(h HomePolicy) func(*Config) {
	return func(c *Config) { c.HomePolicy = h }
}

// ParseProtocol resolves a protocol name — canonical or alias, case-
// insensitive — such as "MW", "wfs+wg" or "HLRC".
func ParseProtocol(name string) (Protocol, error) { return core.ParseProtocol(name) }

// Protocols lists every protocol in id order: the paper's four, then
// HLRC, then Adaptive.
func Protocols() []Protocol { return core.Protocols() }

// ProtocolNames lists the canonical names of every protocol.
func ProtocolNames() []string { return core.ProtocolNames() }

// Config describes a cluster. Zero values select the paper's defaults.
type Config struct {
	// Procs is the number of processors (default 8, the paper's cluster).
	Procs int
	// Protocol selects the coherence protocol (default MW).
	Protocol Protocol
	// HomePolicy selects the page-to-home assignment for the home-based
	// protocols (default StaticHomes).
	HomePolicy HomePolicy
	// DiffSpaceLimit is the per-node twin+diff pool size that triggers
	// garbage collection at the next barrier (default 1 MB).
	DiffSpaceLimit int64
	// WGThreshold is the WFS+WG diff-size threshold (default 3 KB).
	WGThreshold int
	// OwnershipQuantum is the SW protocol's minimum ownership tenure
	// (default 1 ms).
	OwnershipQuantum time.Duration
	// CollectDiffTimeline records the cluster-wide live-diff count over
	// time (the paper's Figure 3).
	CollectDiffTimeline bool
	// Transport selects the substrate carrying the protocol messages
	// (default SimTransport, the deterministic simulator).
	Transport Transport
	// TCP tunes the TCP transport (ignored under SimTransport).
	TCP TCPConfig
}

// Cluster is a simulated DSM machine. Allocate shared memory with
// AllocArray, then execute an SPMD program with Run (once per cluster).
type Cluster struct {
	c      *core.Cluster
	cfg    Config
	series *stats.Series
	ran    bool
}

// NewClusterErr builds a cluster from cfg, returning transport
// construction failures (an unreachable peer mesh, a bad listen address, a
// peer running a different configuration) as an error instead of a panic.
// Prefer it whenever cfg selects a real transport. Panics that are not
// transport failures (engine bugs) propagate unchanged, stack and all.
func NewClusterErr(cfg Config) (*Cluster, error) {
	return newClusterErr(cfg.engine())
}

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) *Cluster {
	return newCluster(cfg.engine())
}

// newClusterErr is newCluster with transport construction failures
// returned as an error (see NewClusterErr).
func newClusterErr(cfg Config, p core.Params) (cl *Cluster, err error) {
	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(transportError)
			if !ok {
				panic(r)
			}
			cl, err = nil, te.err
		}
	}()
	return newCluster(cfg, p), nil
}

// newCluster builds a cluster on engine parameters p; cfg is the
// defaulted Config that engine derived them from.
func newCluster(cfg Config, p core.Params) *Cluster {
	cl := &Cluster{c: core.New(p), cfg: cfg}
	if cfg.CollectDiffTimeline {
		cl.series = &stats.Series{Name: "live-diffs"}
		cl.c.DiffSeries = cl.series
	}
	return cl
}

// engine fills cfg's defaults and builds the engine parameters it
// selects. Every engine choice the public Config does not expose stays at
// core's default.
func (cfg Config) engine() (Config, core.Params) {
	if cfg.Procs == 0 {
		cfg.Procs = 8
	}
	p := core.DefaultParams(cfg.Procs)
	p.Protocol = cfg.Protocol
	p.Home = cfg.HomePolicy
	if cfg.DiffSpaceLimit > 0 {
		p.DiffSpaceLimit = cfg.DiffSpaceLimit
	}
	if cfg.WGThreshold > 0 {
		p.WGThreshold = cfg.WGThreshold
	}
	if cfg.OwnershipQuantum > 0 {
		p.OwnershipQuantum = sim.Time(cfg.OwnershipQuantum)
	}
	if cfg.Transport == TCPTransport {
		// The adaptive thresholds follow the machine, not the user: the
		// simulator keeps the 1997 profile it models, a real mesh gets
		// the measured wire's.
		p.Cost = core.WireProfile()
	}
	p.Runtime = cfg.runtimeFactory(0)
	return cfg, p
}

// Addr is a byte address within the shared segment (Shared.Base, View).
type Addr = int

// Hosts reports whether this cluster instance executes node id's body
// (always true under the simulator; under a multi-process transport only
// for the locally hosted nodes — node 0 is the one whose body computes
// application checksums).
func (cl *Cluster) Hosts(id int) bool { return cl.c.Hosts(id) }

// ErrPeerLost is returned (wrapped) by Run under the TCP transport when a
// peer's connection breaks without the orderly bye that ends a healthy
// run: the peer crashed or was killed. Match with errors.Is; recoverable
// runs (RunRecoverable, dsmnode) rebuild the cluster and restore the last
// checkpoint when they see it.
var ErrPeerLost error = transport.ErrPeerLost{}

// ErrLeaseExpired is returned (wrapped) by Run when membership leases are
// on (TCPConfig.LeaseTerm) and a peer stopped answering heartbeats for a
// full lease term: the process is wedged or partitioned and must be
// treated as dead. Match with errors.Is.
var ErrLeaseExpired error = transport.ErrLeaseExpired{}

// ErrCkptCorrupt is returned (wrapped) by a recovering Run when a
// checkpoint needed for recovery fails its per-page checksum: the replica
// is damaged and recovery refuses to invent data. Match with errors.Is.
var ErrCkptCorrupt = core.ErrCkptCorrupt

// ErrCkptUnrecoverable is returned (wrapped) by a recovering Run when the
// surviving checkpoint stores cannot cover every partition — more state
// was lost than the single buddy replica tolerates. Match with errors.Is.
var ErrCkptUnrecoverable = core.ErrCkptUnrecoverable

// Run executes program on every processor and returns the report. A
// cluster can run only once.
func (cl *Cluster) Run(program func(w *Worker)) (*Report, error) {
	if cl.ran {
		return nil, fmt.Errorf("adsm: cluster already ran")
	}
	cl.ran = true
	elapsed, err := cl.c.Run(func(n *core.Node) {
		program(&Worker{n: n})
	})
	if err != nil {
		return nil, err
	}
	return cl.report(elapsed), nil
}

// report assembles the public Report from internal counters.
func (cl *Cluster) report(elapsed sim.Time) *Report {
	st := cl.c.Totals()
	cl.c.Transport().Count(&st)
	st.GCRuns = cl.c.GCRuns()
	r := &Report{
		Protocol:  cl.cfg.Protocol,
		Home:      cl.cfg.HomePolicy,
		Procs:     cl.cfg.Procs,
		Transport: cl.cfg.Transport,
		Partial:   cl.c.Partial(),
		Elapsed:   elapsed.Duration(),
		Stats:     st,
		Sharing:   cl.c.Characteristics(),
	}
	if cl.series != nil {
		r.DiffTimeline = make([]TimelinePoint, 0, len(cl.series.Points))
		for _, p := range cl.series.Points {
			r.DiffTimeline = append(r.DiffTimeline, TimelinePoint{
				T:         time.Duration(p.T),
				LiveDiffs: p.V,
			})
		}
	}
	return r
}

// Stats aggregates the protocol counters across all processors: the
// engine's own counter struct, summed over the nodes, plus the runtime's
// traffic and the cluster's garbage collections. Wire and per-class
// counters are zero (nil) under the simulator.
type Stats = stats.Counters

// Sharing summarizes the measured application characteristics (the
// paper's Table 2): write-write false sharing and write granularity,
// summed from each hosted node's own view of its pages.
type Sharing = core.Characteristics

// TimelinePoint is one sample of the live-diff-count timeline (Figure 3).
type TimelinePoint struct {
	T         time.Duration
	LiveDiffs int64
}

// Report is the result of one cluster execution. Under SimTransport,
// Elapsed is deterministic virtual time; under a real transport it is
// wall-clock time. A Partial report comes from one endpoint of a
// multi-process run and covers that process's nodes only.
type Report struct {
	Protocol     Protocol
	Home         HomePolicy
	Procs        int
	Transport    Transport
	Partial      bool
	Elapsed      time.Duration
	Stats        Stats
	Sharing      Sharing
	DiffTimeline []TimelinePoint
}

// MemoryMB returns the cumulative twin+diff memory in megabytes (the
// paper's Table 3 metric).
func (r *Report) MemoryMB() float64 {
	return float64(r.Stats.TwinBytes+r.Stats.DiffBytes) / (1 << 20)
}

// DataMB returns the total data moved in megabytes (Table 4).
func (r *Report) DataMB() float64 { return float64(r.Stats.DataBytes) / (1 << 20) }
