package core

import (
	"math/bits"

	"adsm/internal/mem"
)

// Garbage collection of twins, diffs, write notices and page copies,
// triggered when a node's twin+diff pool exceeds the limit and coordinated
// at the next barrier.
//
// MW (TreadMarks): every concurrent writer of a page validates its copy by
// applying all diffs; all other copies, and all diffs and write notices,
// are deleted.
//
// Adaptive (WFS/WFS+WG): only the last owner validates its copy; all other
// copies are deleted and the page collapses back to SW mode with the last
// owner as its owner (Section 3.1.1, "Merging Single Writer Copies and
// Diffs").

// gcHints decides, per page written since the last collection, which node
// keeps (and validates) the page. It runs on node 0, the barrier manager,
// when every node has arrived, and reads only node 0's own state:
// writers[pg] has bit p set when processor p wrote page pg since the last
// collection (every writer's intervals reached node 0 in its barrier
// arrival), and node 0's routing for an ownership page names the page's
// authority, because every owner write notice reached it the same way.
// The writers of each hinted page are cleared, as runGC clears
// wroteSinceGC.
func (n *Node) gcHints(writers []uint64) []gcHint {
	var hints []gcHint
	for pg, w := range writers {
		ps := n.pages[pg]
		if w == 0 || !ps.policy.GCEligible() {
			// HLRC pages hold no twins or lazy diffs: their diffs were
			// flushed home and retired at interval close, so there is
			// nothing to collect and the home copy must not be dropped.
			continue
		}
		// MW keeps the lowest-numbered writer (all writers validate in
		// pure MW; see runGC).
		h := gcHint{Page: pg, Owner: bits.TrailingZeros64(w)}
		switch {
		case !ps.policy.GCKeeperIsOwner():
		case ps.owner || ps.wasLast:
			h.Owner, h.Version = n.id, ps.version
		default:
			h.Owner, h.Version = ps.perceivedOwner, ps.perceivedVersion
		}
		hints = append(hints, h)
		writers[pg] = 0
	}
	if gcHintsCheck != nil {
		gcHintsCheck(n.c, hints)
	}
	return hints
}

// gcHintsCheck, when set (test builds), sees every collection's hints.
var gcHintsCheck func(c *Cluster, hints []gcHint)

// runGC executes the two GC phases on this node (process context):
// validation (or nothing, for nodes that will drop) and the keeper's
// verdict, a mini-barrier when the node has peers, then the drop phase.
func (n *Node) runGC(hints []gcHint) {
	// keeps reports whether this node validates and keeps its copy: the
	// keeper does, and in MW every writer does too (in the adaptive
	// protocols only the keeper, the last owner). The collapse decision is
	// per page now that policies are page-granular.
	keeps := func(h gcHint, ps *pageState) bool {
		return n.id == h.Owner || !ps.policy.GCCollapseToSW() && n.wroteSinceGC[h.Page] && ps.data != nil
	}
	// Phase 1: validation, then the verdict, and the write-notice history
	// goes. Both precede the mini-barrier arrival: once it is released, a
	// peer may at once ask the keeper for the page, and the manager may
	// ingest a peer's next barrier arrival, before this node's drop phase
	// runs. Applied later, the verdict let a keeper grant the page under
	// its old state and then make itself owner again, and the history
	// drop lost the peer's new intervals.
	for _, h := range hints {
		if ps := n.pages[h.Page]; ps.data != nil && keeps(h, ps) {
			n.validate(h.Page)
		}
	}
	for _, h := range hints {
		ps := n.pages[h.Page]
		ps.pending = ps.pending[:0]
		ps.knownWNs = ps.knownWNs[:0]
		ps.myLastWN = wnRef{}
		n.gcCollapse(ps, h, ps.policy.GCCollapseToSW())
	}
	// Everyone's knowledge vectors are equal after the barrier, so no
	// future acquire can need an interval known now: the logs are cut at
	// this knowledge in phase 2, once the twins' undiffed notices are
	// gone too. Whatever a peer's next barrier arrival brings meanwhile
	// stays above the cut.
	copy(n.gcKnown, n.knownTS)

	// Mini-barrier: every diff anyone still needs has now been fetched.
	if n.c.params.Procs > 1 {
		n.barrierRound(true)
	}

	// Phase 2: drop.
	for _, h := range hints {
		ps := n.pages[h.Page]
		if ps.data != nil && !keeps(h, ps) {
			ps.data, ps.dataShared = nil, false
			ps.status = pageInvalid
			for i := range ps.applied {
				ps.applied[i] = 0
			}
		}
		if ps.twin != nil {
			// Unfetched twin: its diff is no longer needed (the write
			// notices are being discarded and every surviving copy came
			// from a validator that already reflects these writes or from
			// the owner chain).
			n.liveTwinBytes -= int64(len(ps.twin))
			n.dropTwin(ps)
			ps.undiffed = wnRef{}
		}
		ps.seesFS = false
		ps.copysetFS = nil
		n.wroteSinceGC[h.Page] = false
	}

	// What an uncollected page (HLRC's) still names stays (cutLogs).
	n.cutLogs(n.gcKnown)

	// Drop all diffs.
	n.diffCache = make(map[wnKey]*mem.Diff)
	n.pushed = nil
	n.foreign, n.queued, n.evictAt = nil, 0, 0
	n.c.noteDiffCount(-n.liveDiffs)
	n.liveDiffs = 0
	n.liveDiffBytes = 0
	n.freePages = nil // the twin pool was just collected: hold none of it back
	n.noteLive()
}
