package core

import (
	"fmt"

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

// computeGCHints decides, per written page, which node keeps (and
// validates) the page. It runs on the barrier manager when all nodes have
// arrived; the scan stands in for the copyset metadata a real TreadMarks
// node maintains, and its result is charged to the release messages.
func (c *Cluster) computeGCHints() []gcHint {
	var hints []gcHint
	for pg := 0; pg < c.usedPages(); pg++ {
		// Per-page policy: all nodes agree on a page's protocol at barrier
		// time (switches are barrier-epoch synchronized), so node 0's view
		// stands for the cluster's.
		policy := c.nodes[0].pages[pg].policy
		if !policy.GCEligible() {
			// HLRC pages hold no twins or lazy diffs: their diffs were
			// flushed home and retired at interval close, so there is
			// nothing to collect and the home copy must not be dropped.
			continue
		}
		written := false
		for _, n := range c.nodes {
			if n.wroteSinceGC[pg] {
				written = true
				break
			}
		}
		if !written {
			continue
		}
		keeper := -1
		version := int32(0)
		if policy.GCKeeperIsOwner() {
			for _, n := range c.nodes {
				ps := n.pages[pg]
				if ps.owner || ps.wasLast {
					if keeper != -1 {
						panic(fmt.Sprintf("dsm: page %d has two ownership authorities (%d and %d)", pg, keeper, n.id))
					}
					keeper = n.id
					version = ps.version
				}
			}
		}
		if keeper == -1 {
			// MW: keep the lowest-numbered writer (all writers validate in
			// pure MW; see runGC).
			for _, n := range c.nodes {
				if n.wroteSinceGC[pg] && n.pages[pg].data != nil {
					keeper = n.id
					break
				}
			}
		}
		if keeper == -1 {
			continue
		}
		hints = append(hints, gcHint{Page: pg, Owner: keeper, Version: version})
	}
	return hints
}

// runGC executes the two GC phases on this node (process context):
// validation (or nothing, for nodes that will drop), a mini-barrier, then
// the drop phase.
func (n *Node) runGC(hints []gcHint) {
	// Phase 1: validation. In MW every writer validates its copy; in the
	// adaptive protocols only the keeper (last owner) does. The collapse
	// decision is per page now that policies are page-granular.
	for _, h := range hints {
		ps := n.pages[h.Page]
		adaptive := ps.policy.GCCollapseToSW()
		validator := n.id == h.Owner
		if !adaptive && n.wroteSinceGC[h.Page] && ps.data != nil {
			validator = true
		}
		if validator && ps.data != nil {
			n.validate(h.Page)
		}
	}

	// Mini-barrier: every diff anyone still needs has now been fetched.
	n.barrierRound(true)

	// Phase 2: drop.
	for _, h := range hints {
		ps := n.pages[h.Page]
		// Authority and version state are rewritten below (and dropped
		// copies zero their applied vector): retract any publication.
		n.invalidateRegion(h.Page, ps)
		adaptive := ps.policy.GCCollapseToSW()
		keep := n.id == h.Owner
		if !adaptive && n.wroteSinceGC[h.Page] && ps.data != nil {
			keep = true // all MW writers keep their validated copies
		}
		if !keep && ps.data != nil {
			ps.data = nil
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
			n.Stats.LiveTwinBytes -= int64(len(ps.twin))
			ps.twin = nil
			ps.undiffed = nil
		}
		ps.pending = ps.pending[:0]
		ps.knownWNs = nil
		ps.ownerWN = nil
		ps.myLastWN = nil
		ps.seesFS = false
		ps.copysetFS = nil
		ps.deferred = ps.deferred[:0]
		ps.dropOwnership = false
		if adaptive {
			n.setMode(ps, modeSW)
			if n.id == h.Owner {
				ps.owner = true
				ps.wasLast = false
				ps.version = h.Version
				ps.perceivedOwner = n.id
				ps.perceivedVersion = h.Version
			} else {
				ps.owner = false
				ps.wasLast = false
				ps.version = h.Version
				ps.perceivedOwner = h.Owner
				ps.perceivedVersion = h.Version
			}
		} else {
			ps.perceivedOwner = h.Owner
			ps.perceivedVersion = h.Version
		}
		n.wroteSinceGC[h.Page] = false
	}

	// Drop all diffs and all interval/write-notice history. Everyone's
	// knowledge vectors are equal after the barrier, so no future acquire
	// can need a discarded interval.
	n.diffCache = make(map[wnKey]*mem.Diff)
	n.c.noteDiffCount(-n.liveDiffs)
	n.liveDiffs = 0
	n.Stats.LiveDiffBytes = 0
	n.freeTwins = nil // the twin pool was just collected: hold none of it back
	for p := range n.intervals {
		n.intervals[p] = nil
	}
	n.Stats.NoteLive()
}
