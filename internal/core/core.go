// Package core implements the lazy release consistent (LRC) software DSM
// protocols from Amza et al., "Software DSM Protocols that Adapt between
// Single Writer and Multiple Writer" (HPCA 1997):
//
//   - MW: the TreadMarks multiple-writer protocol (twinning and diffing,
//     lazy diff creation, barrier-time garbage collection),
//   - SW: a CVM-like single-writer protocol (page ownership with version
//     numbers, static homes with request forwarding, an ownership quantum),
//   - WFS: the adaptive protocol that chooses SW or MW per page based on
//     write-write false sharing, detected by the ownership refusal protocol,
//   - WFSWG: WFS plus adaptation to write granularity (the 3 KB diff
//     threshold),
//
// plus two protocols built on the same engine:
//
//   - HLRC: home-based LRC (eager diff flush to per-page homes),
//   - Adaptive: a meta-protocol that migrates each page between MW, WFS,
//     WFSWG and HLRC at barrier epochs.
//
// The protocol set is fixed (protocols.go); each protocol is one Policy
// implementation. The package runs on the deterministic cluster simulator
// in internal/sim or on a real transport; access detection uses explicit
// checks in the accessors rather than page protection traps (see
// DESIGN.md for the substitution argument).
package core

import (
	"adsm/internal/mem"
	"adsm/internal/transport"
)

// Params configures a cluster. The defaults reproduce the paper's
// experimental environment (Section 4).
type Params struct {
	Procs    int
	Protocol Protocol
	// Home selects the home-assignment policy for the home-based
	// protocols (zero value: static pg % procs).
	Home Home
	// Net is the simulated network cost model (used by the simulator
	// transport; real transports have real costs).
	Net transport.NetParams
	// Runtime builds the transport runtime carrying the cluster's
	// messages. Nil selects the default (the deterministic simulator,
	// registered by internal/sim at init time).
	Runtime RuntimeFactory

	// CostTwin is the time to copy a page into a twin (104 us).
	CostTwin transport.Time
	// CostDiffPage is the time to create a diff by scanning a full page
	// (179 us); diffs of partial pages are pro-rated.
	CostDiffPage transport.Time
	// CostDiffApply is the base time to apply one diff.
	CostDiffApply transport.Time
	// OwnershipQuantum guarantees a new SW owner the page for this long
	// before it can be taken away (1 ms; pure SW protocol only).
	OwnershipQuantum transport.Time
	// DiffSpaceLimit is the per-node twin+diff pool size that triggers
	// garbage collection at the next barrier (1 MB).
	DiffSpaceLimit int64
	// WGThreshold is the diff size above which WFS+WG switches a page to
	// SW mode (3 KB).
	WGThreshold int
	// MaxSharedBytes bounds the shared segment.
	MaxSharedBytes int
	// EventLimit aborts runaway simulations (0 = default limit).
	EventLimit uint64
	// Cost is the cost profile the adaptive meta-protocol's thresholds
	// are tuned to (meta.go): the paper's 1997 machine by default, the
	// measured wire for the TCP transport.
	Cost CostProfile

	// The reference engines: test-only switches that select the engine a
	// later optimization replaced, so the equivalence tests can pin that
	// the optimization changes cost, never results. The public Config does
	// not expose them; root tests reach them through NewClusterParams.

	// PerWordSpans disables the bulk fast path: AccessRange degenerates to
	// one protocol check per element instead of one per page, the cost
	// model every access paid before spans existed. Protocol behavior is
	// identical either way (the per-page bookkeeping is idempotent within
	// an interval); only host-side overhead changes
	// (TestSpanVsPerWordEquivalence).
	PerWordSpans bool
	// AdaptiveFreeze pins the adaptive meta-protocol to one static protocol
	// (a static protocol's name, e.g. "MW"): every page initializes under
	// that protocol and the barrier manager never issues switches, so a
	// frozen adaptive run is the static protocol, byte for byte
	// (TestAdaptiveFrozenEquivalence). Empty means adapt freely. Ignored by
	// the static protocols.
	AdaptiveFreeze string
	// SpanPrefetch enables the batched span fetch (DefaultParams sets it):
	// AccessRange plans the coherence work of a whole span first (which
	// pages need a copy from where, which need diffs from whom) and issues
	// it as one overlapped Multicall before installing pages and running
	// the callbacks, instead of taking one blocking fault per page. Off
	// degrades to the serial per-page path — the pre-batching engine, byte
	// for byte (TestPrefetchEquivalence). PerWordSpans implies off (the
	// degrade path is per-element).
	SpanPrefetch bool

	// CkptStores enables barrier-epoch checkpoint replication (ckpt.go):
	// it resolves the durable checkpoint store of each hosted rank. The
	// stores belong to the driver and must outlive cluster incarnations —
	// they carry the state recovery restores after a node loss. Nil (or
	// returning nil for a rank) disables checkpointing for that rank; all
	// participants of a run must agree on whether checkpointing is on,
	// because BarrierCkpt adds a barrier round when it is.
	CkptStores func(rank int) *CkptStore
}

// RuntimeFactory builds a transport runtime for a cluster. Factories that
// cannot construct their runtime (e.g. a TCP endpoint that cannot bind or
// reach its peers) panic with a descriptive error.
type RuntimeFactory func(p Params) transport.Runtime

// DefaultParams returns the paper's configuration for the given number of
// processors.
func DefaultParams(procs int) Params {
	return Params{
		Procs:            procs,
		Protocol:         MW,
		Net:              transport.DefaultNetParams(),
		CostTwin:         104 * transport.Microsecond,
		CostDiffPage:     179 * transport.Microsecond,
		CostDiffApply:    15 * transport.Microsecond,
		OwnershipQuantum: 1 * transport.Millisecond,
		DiffSpaceLimit:   1 << 20,
		WGThreshold:      3 * 1024,
		MaxSharedBytes:   64 << 20,
		EventLimit:       2_000_000_000,
		Cost:             PaperProfile(),
		SpanPrefetch:     true,
	}
}

// diffCost models the time to create a diff: the page must be scanned in
// full (CostDiffPage) plus a small amount proportional to the data copied.
func (p *Params) diffCost(d *mem.Diff) transport.Time {
	return p.CostDiffPage + transport.Time(d.DataBytes())*20 // ~20ns/byte encode
}

// applyCost models the time to apply a diff at the receiver.
func (p *Params) applyCost(d *mem.Diff) transport.Time {
	return p.CostDiffApply + transport.Time(d.DataBytes())*10
}

type pageStatus uint8

const (
	pageInvalid pageStatus = iota
	pageReadOnly
	pageReadWrite
)

type pageMode uint8

const (
	modeSW pageMode = iota
	modeMW
)

func (m pageMode) String() string {
	if m == modeSW {
		return "SW"
	}
	return "MW"
}
