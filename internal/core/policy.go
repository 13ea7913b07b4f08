package core

// The protocol-strategy seam: every place the engine used to switch on
// Params.Protocol now calls through the Policy interface, so a protocol is
// one type implementing these hooks plus one row of the fixed protocol
// table (protocols.go). The engine (faults, intervals, locks, barriers,
// GC) stays protocol-agnostic; the policies reuse its building blocks
// (stayMW, validate, tryOwnership, ...) in different combinations.
//
// Policy resolution is per page, not per cluster: every pageState carries
// its protocol id and policy instance (ps.proto / ps.policy), seeded from
// the cluster protocol at InitPage and changed only at barrier epochs (the
// adaptive meta-protocol). Engine call sites that act on one page resolve
// the policy through the page; cluster-wide hooks (interval close, barrier
// release) partition their work by page protocol and call each distinct
// policy once.

// Policy is the per-protocol strategy consulted at every protocol decision
// point. Implementations must be safe to use from both process context
// (application threads, may block on RPCs) and handler context (message
// service, must not block) as annotated per method.
type Policy interface {
	// InitPage seeds node n's initial state for page pg (the page's mode,
	// the initial copy, and ownership). Runs once per (node, page) when
	// Run starts; the generic fields (applied vector, perceived owner =
	// allocator, home table) are already set.
	InitPage(n *Node, pg int, ps *pageState)

	// WriteFault services a write miss on a page this node does not own
	// (the owner fast path is handled generically). Process context.
	WriteFault(n *Node, pg int, ps *pageState)

	// MakeValid brings an invalid or stale page up to date with every
	// write notice received for it, leaving ps.data current. Process
	// context; may block on page and diff fetches.
	MakeValid(n *Node, pg int, ps *pageState)

	// OnIntervalClose runs in process context immediately after the node
	// closes its interval ts (at a release-class event) and before the
	// event's messages go out, once per protocol of the pages the interval
	// wrote; self is that protocol, so the policy acts only on the notices
	// of pages with ps.proto == self. The interval's row is in the node's
	// own log, not yet published. HLRC uses it to flush diffs home.
	OnIntervalClose(n *Node, self Protocol, ts int32)

	// OnOwnerNotice reacts to an ingested owner write notice after the
	// generic routing state is updated (adaptation mechanism 2 of Section
	// 3.1.2). May run in handler context.
	OnOwnerNotice(n *Node, ps *pageState, wn notice)

	// OnBarrierRelease runs after a barrier release is ingested, when the
	// node is up to date with all modifications (adaptation mechanism 3).
	// It is called once per distinct page protocol on the node; self is the
	// protocol id the policy is serving, so page scans must restrict
	// themselves to pages with ps.proto == self. Process context.
	OnBarrierRelease(n *Node, self Protocol)

	// OnServePage runs before replying to a whole-page fetch from node
	// `from` (the WFS+WG read-probe hook). Handler context.
	OnServePage(n *Node, from, pg int, ps *pageState)

	// OnServeDiffs runs when serving a diff request, carrying the
	// requester's piggybacked false-sharing perception (adaptation
	// mechanism 1). Handler context.
	OnServeDiffs(n *Node, from int, ps *pageState, seesFS bool)

	// AllowSWByGranularity reports whether write-granularity adaptation
	// permits moving the page to SW mode (the WFS+WG 3 KB gate; every
	// other protocol answers true).
	AllowSWByGranularity(n *Node, ps *pageState) bool

	// MemPressure reports whether this node should request a garbage
	// collection at the next barrier.
	MemPressure(n *Node) bool

	// GCKeeperIsOwner selects the GC keeper: true picks the page's
	// ownership authority (owner or last owner), false the lowest-numbered
	// writer (pure MW, where every writer validates).
	GCKeeperIsOwner() bool

	// GCCollapseToSW makes garbage collection collapse every collected
	// page back to SW mode under the keeper (the adaptive protocols).
	GCCollapseToSW() bool

	// GCEligible reports whether pages under this policy participate in
	// barrier-time garbage collection at all. HLRC answers false: its homes
	// must keep their copies and it retires diffs eagerly, so the GC drop
	// phase has nothing to collect and would be wrong.
	GCEligible() bool

	// SpanFetchPlan classifies one invalid page of a span for the batched
	// fetch: the whole-page fetch target (-1 when the local copy only
	// needs diffs), the diff-backed write notices to fetch and apply, and
	// ok=false to decline batching for this page (the engine then falls
	// back to the serial MakeValid path). The plan must request exactly
	// what one serial merge round would. Process context; may block only
	// on non-coherence RPCs (e.g. resolving a first-touch home binding).
	SpanFetchPlan(n *Node, pg int, ps *pageState) (target int, diffs []wnRef, ok bool)

	// SpanSettle finishes a batched fetch for one page after the fetched
	// copy has been installed and the bundled diffs stored: it applies or
	// discards the pending write notices exactly as one MakeValid round
	// would, settling serially if new notices raced the batch. Process
	// context; may block.
	SpanSettle(n *Node, pg int, ps *pageState)
}

// basePolicy supplies the no-op defaults shared by the concrete policies.
type basePolicy struct{}

func (basePolicy) OnIntervalClose(n *Node, self Protocol, ts int32)       {}
func (basePolicy) OnOwnerNotice(n *Node, ps *pageState, wn notice)        {}
func (basePolicy) OnBarrierRelease(n *Node, self Protocol)                {}
func (basePolicy) OnServePage(n *Node, from, pg int, ps *pageState)       {}
func (basePolicy) OnServeDiffs(n *Node, from int, ps *pageState, fs bool) {}
func (basePolicy) AllowSWByGranularity(n *Node, ps *pageState) bool       { return true }
func (basePolicy) MemPressure(n *Node) bool                               { return n.memPressure() }
func (basePolicy) GCKeeperIsOwner() bool                                  { return false }
func (basePolicy) GCCollapseToSW() bool                                   { return false }
func (basePolicy) GCEligible() bool                                       { return true }
func (basePolicy) MakeValid(n *Node, pg int, ps *pageState)               { n.lrcMakeValid(pg, ps) }
func (basePolicy) SpanFetchPlan(n *Node, pg int, ps *pageState) (int, []wnRef, bool) {
	return n.lrcSpanPlan(ps)
}
func (basePolicy) SpanSettle(n *Node, pg int, ps *pageState) { n.lrcSpanSettle(pg, ps) }

// ownerInitPage is the shared InitPage of the ownership-based protocols:
// every page starts in SW mode, owned (with its initial copy) by the
// allocator, node 0.
func ownerInitPage(n *Node, ps *pageState) {
	ps.initPage(modeSW, n.id == 0)
	if n.id == 0 {
		n.c.zeroPage(ps)
		ps.status = pageReadOnly
	}
}

// --- MW: the TreadMarks multiple-writer protocol ---

type mwPolicy struct{ basePolicy }

func (mwPolicy) InitPage(n *Node, pg int, ps *pageState) {
	ps.initPage(modeMW, false)
	if n.id == 0 {
		n.c.zeroPage(ps)
		ps.status = pageReadOnly
	}
}

func (mwPolicy) WriteFault(n *Node, pg int, ps *pageState) { n.stayMW(pg, ps) }

// --- SW: the CVM-like single-writer protocol ---

type swPolicy struct{ basePolicy }

func (swPolicy) InitPage(n *Node, pg int, ps *pageState) { ownerInitPage(n, ps) }

func (swPolicy) WriteFault(n *Node, pg int, ps *pageState) { n.writeFaultSW(pg, ps) }

func (swPolicy) GCKeeperIsOwner() bool { return true }

// --- WFS and WFS+WG: the adaptive protocols ---

// adaptivePolicy implements WFS; with wg set it additionally adapts to
// write granularity (WFS+WG).
type adaptivePolicy struct {
	basePolicy
	wg bool
}

func (adaptivePolicy) InitPage(n *Node, pg int, ps *pageState) { ownerInitPage(n, ps) }

func (adaptivePolicy) WriteFault(n *Node, pg int, ps *pageState) { n.writeFaultAdaptive(pg, ps) }

// OnOwnerNotice is mechanism 2 of Section 3.1.2: a new owner write notice
// with no concurrent secondary write notice means a single writer has
// re-emerged, so the page may return to SW mode.
func (p adaptivePolicy) OnOwnerNotice(n *Node, ps *pageState, wn notice) {
	if ps.mode != modeMW || ps.owner || ps.wasLast {
		return
	}
	for _, old := range ps.pending {
		if old.proc != wn.proc && n.ivc(old).Concurrent(wn.vc) {
			return
		}
	}
	if ps.myLastWN.ok() && n.ivc(ps.myLastWN).Concurrent(wn.vc) {
		return
	}
	if p.AllowSWByGranularity(n, ps) {
		n.setMode(ps, modeSW)
		ps.seesFS = false
	}
}

// OnBarrierRelease is mechanism 3 of Section 3.1.2: at a barrier every
// node is up to date with all modifications, so a write notice that
// dominates all other write notices for a page means write-write false
// sharing has stopped and the page can return to SW mode.
func (p adaptivePolicy) OnBarrierRelease(n *Node, self Protocol) {
	for pg := 0; pg < n.c.usedPages(); pg++ {
		ps := n.pages[pg]
		if ps.proto != self {
			continue
		}
		if ps.mode != modeMW || ps.owner || ps.wasLast || len(ps.pending) == 0 {
			continue
		}
		dom := n.dominatingWN(ps.pending)
		if dom == nil {
			continue
		}
		if ps.myLastWN.ok() && !n.ivc(ps.myLastWN).Leq(dom) {
			// Our own write is not dominated: sharing has not stopped.
			continue
		}
		if p.AllowSWByGranularity(n, ps) {
			n.setMode(ps, modeSW)
			ps.seesFS = false
		}
	}
}

// OnServePage: a remote read of a page we own and have modified makes the
// page read-write shared, so WFS+WG drops it to MW, where its write
// granularity can be measured (Section 3.3). The drop is immediate when
// this interval has no unpublished owner writes; otherwise it waits for
// the release that publishes them (dropOwner).
func (p adaptivePolicy) OnServePage(n *Node, from, pg int, ps *pageState) {
	if !p.wg || !ps.owner || ps.wgProbed || from == n.id {
		return
	}
	if !ps.wroteSW && !ps.myLastWN.ok() {
		return
	}
	ps.wgProbed = true
	n.dropOwner(pg, ps)
}

// OnServeDiffs records the requester's false-sharing perception in the
// copyset (mechanism 1 of Section 3.1.2).
func (adaptivePolicy) OnServeDiffs(n *Node, from int, ps *pageState, seesFS bool) {
	if ps.copysetFS == nil {
		ps.copysetFS = make(map[int]bool)
	}
	ps.copysetFS[from] = seesFS
}

// AllowSWByGranularity: WFS always permits SW mode; WFS+WG only for pages
// whose diffs are large (or that never went through MW measuring).
func (p adaptivePolicy) AllowSWByGranularity(n *Node, ps *pageState) bool {
	if !p.wg || !ps.wgProbed {
		return true
	}
	return ps.lastDiffSize >= n.c.params.WGThreshold
}

func (adaptivePolicy) GCKeeperIsOwner() bool { return true }
func (adaptivePolicy) GCCollapseToSW() bool  { return true }
