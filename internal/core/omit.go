package core

import "adsm/internal/mem"

// The omittable-write pass (Params.OmitWrites): NWR's Thomas-write-rule
// observation applied to LRC diffs. When a node repeatedly rewrites the
// same slots between synchronization shipments — the hot-key pattern of a
// serving workload reacquiring a locally-held lock — the earlier diffs are
// dead weight: every peer that ever learns about interval i1 necessarily
// learns about i2 in the same message, and applies both diffs in orderWNs
// order (i1 before i2, they are totally ordered on one processor). If the
// i2 diff writes every byte the i1 diff writes, the i1 payload is
// overwritten before anyone can observe it, so it can be dropped.
//
// Safety argument, in three legs:
//
//  1. Knowledge is watermark-based. Intervals leave a node only through
//     shipIntervals (lock grants and barrier traffic), which sends every
//     interval above the receiver's per-processor watermark. There is no
//     path by which a peer learns own-interval i2 without i1: any shipment
//     containing i2 contains i1 unless i1 was already below the receiver's
//     watermark — in which case i1 was shipped earlier and shippedOwnTS
//     covers it. Page and region serves carry an applied vector clock, not
//     interval records, so they never count as shipping (a fetched page
//     already has the diffs applied in order; the write notices themselves
//     still travel only through shipIntervals). Relays of our intervals by
//     third parties imply we shipped them first.
//
//  2. shippedOwnTS is the high-water mark of own intervals ever handed to
//     the transport. A predecessor write notice with TS above it has
//     provably never left this node, so no diff cache anywhere holds a
//     copy and no peer can ever request the predecessor without also
//     having the successor's notice in hand. Diffs pushed on lock grants
//     (push.go) do not weaken this: a grant pushes only diffs of the
//     intervals it ships, which shipIntervals has already counted, so a
//     pushed diff of ours is at or below the watermark and never emptied.
//
//  3. Byte-extent coverage. MakeDiff emits maximal runs (adjacent modified
//     bytes coalesce), so "successor covers predecessor" is checked per
//     run: each predecessor run must fall inside a single successor run
//     (a covered contiguous region cannot straddle a gap). Every future
//     applier — remote validate, span settle, GC keeper, page install
//     replay — applies the two diffs through orderWNs, predecessor first,
//     so an emptied predecessor followed by the covering successor yields
//     the same bytes as the full pair.
//
// The successor diff must be materialized eagerly at interval close
// (TreadMarks laziness means it does not exist yet), both to check
// coverage and because later remote diffs merged into the page would
// perturb a lazily-created diff. The predecessor diff always exists: the
// successor interval's first write ran makeTwin, which flushes the pending
// twin through makeDiff first. Barriers ship everything above lastGlobal,
// so the pass only fires between barriers across locally-reacquired locks
// — exactly the serving hot path. The write notice itself survives with
// an empty diff (zero runs): appliers treat it as a no-op and the wire
// codecs already carry empty diffs.

// shipIntervals wraps intervalsSince at every point intervals leave the
// node, advancing the shipped watermark for our own intervals. All four
// shipment sites (lock grant, holder grant, barrier arrival, barrier
// release fan-out) go through it; nothing else may hand intervals to the
// transport.
func (n *Node) shipIntervals(known []int32) []*Interval {
	out := n.intervalsSince(known)
	for _, iv := range out {
		if iv.Proc == n.id && iv.TS > n.shippedOwnTS {
			n.shippedOwnTS = iv.TS
		}
	}
	return out
}

// tryOmitPredecessor runs at interval close for a page whose new write
// notice (next) succeeds an earlier one (prev) by this node. If prev was
// never shipped and next's diff covers prev's byte extent, prev's diff
// payload is dropped. Process context; charges the eager diff creation.
func (n *Node) tryOmitPredecessor(pg int, ps *pageState, prev, next *WriteNotice) {
	if prev == nil || prev.Owner || prev.Int.Proc != n.id {
		return
	}
	if prev.Int.TS <= n.shippedOwnTS {
		return // may already be cached remotely; payload must survive
	}
	d1, ok := n.diffCache[keyOf(prev)]
	if !ok || d1.Empty() {
		return
	}
	// Materialize the successor diff now (ps.undiffed == next).
	d2 := n.makeDiff(pg, ps)
	n.proc.Advance(n.c.params.diffCost(d2))
	if !covers(d2, d1) {
		return
	}
	oldSize := d1.EncodedSize()
	bytes := d1.DataBytes()
	d1.Runs = nil
	n.liveDiffBytes -= int64(oldSize - d1.EncodedSize())
	n.noteLive()
	n.Stats.OmittedWrites++
	n.Stats.OmittedBytes += int64(bytes)
}

// covers reports whether every byte run of inner lies within some run of
// outer. Runs are sorted by offset and maximal (MakeDiff), so each inner
// run must fit inside exactly one outer run; a single merged two-pointer
// sweep suffices.
func covers(outer, inner *mem.Diff) bool {
	j := 0
	for _, r := range inner.Runs {
		lo, hi := r.Off, r.Off+len(r.Data) // [lo, hi)
		for j < len(outer.Runs) && outer.Runs[j].Off+len(outer.Runs[j].Data) < hi {
			j++
		}
		if j == len(outer.Runs) || outer.Runs[j].Off > lo {
			return false
		}
	}
	return true
}
