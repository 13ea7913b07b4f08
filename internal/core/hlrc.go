package core

import (
	"fmt"
	"slices"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// HLRC: home-based lazy release consistency (after Zhou, Iftode & Li,
// "Performance Evaluation of Two Home-Based Lazy Release Consistency
// Protocols for Shared Virtual Memory Systems", OSDI 1996). Every page has
// a home (pg % procs unless Params.Home picks otherwise). Writers twin and
// diff exactly like MW, but at every interval close the diffs are created
// eagerly and flushed to the homes — the flush completes before the
// release-class event proceeds, so by the time any node learns a write
// notice, the home copy already reflects it. A faulting node therefore
// never collects diffs: it fetches the whole page from the home. Diffs are
// retired the moment the home has applied them, so HLRC accumulates no
// twin/diff pool and never needs the barrier-time garbage collection of
// the other protocols.

type hlrcPolicy struct{ basePolicy }

// InitPage: pages start in MW mode (twins and diffs for write detection)
// with the initial zeroed copy living at the home. When the home policy
// has not bound the page yet (first touch), the allocator holds the
// initial copy until a home emerges.
func (hlrcPolicy) InitPage(n *Node, pg int, ps *pageState) {
	home := int(n.homes[pg])
	if home < 0 {
		home = homeDirNode
	}
	ps.bindHome(home)
	if n.id == home {
		n.c.zeroPage(ps)
		ps.status = pageReadOnly
	}
}

// WriteFault is the MW path: validate (a home fetch under this policy),
// then twin.
func (hlrcPolicy) WriteFault(n *Node, pg int, ps *pageState) { n.stayMW(pg, ps) }

// MakeValid fetches the home copy. The home's applied vector is guaranteed
// to dominate every write notice this node has received for the page: the
// writer's flush completed before the release that published the notice,
// and notices only travel along release→acquire chains. The loop re-checks
// because new notices can be ingested while the fetch RPC is in flight.
func (hlrcPolicy) MakeValid(n *Node, pg int, ps *pageState) {
	for round := 0; ; round++ {
		if round > 1000 {
			msg := fmt.Sprintf("dsm: node %d cannot settle hlrc page %d (data=%v status=%d applied=%v home=%d)",
				n.id, pg, ps.data != nil, ps.status, ps.applied, n.resolveHome(pg))
			panic(msg + n.pendingDump(ps))
		}
		n.dropApplied(ps)
		if ps.data != nil && len(ps.pending) == 0 {
			break
		}
		home := n.resolveHome(pg)
		if home == n.id {
			// The bind RPC may have blocked, and a flush that arrived
			// meanwhile bound this node and made its copy: look again.
			n.dropApplied(ps)
			if len(ps.pending) == 0 {
				if ps.data == nil {
					// A freshly bound first-touch home materializes its
					// initial copy: pages are zero-initialized and every
					// modification anywhere reaches the home as a flushed
					// diff, so the zero page plus the applied flushes is
					// exact.
					n.c.zeroPage(ps)
				}
				continue
			}
			panic(fmt.Sprintf("dsm: hlrc home %d has a stale copy of page %d (applied=%v)", n.id, pg, ps.applied) + n.pendingDump(ps))
		}
		n.fetchPage(pg, ps, home)
	}
	if ps.status == pageInvalid {
		ps.status = pageReadOnly
	}
}

// dropApplied discards the pending notices our copy already reflects.
func (n *Node) dropApplied(ps *pageState) {
	ps.pending = slices.DeleteFunc(ps.pending, func(r wnRef) bool { return n.ivc(r).Leq(ps.applied) })
}

// pendingDump lists the page's pending notices for a panic message.
func (n *Node) pendingDump(ps *pageState) string {
	var s string
	for _, r := range ps.pending {
		wn := n.wn(r)
		s += fmt.Sprintf("\n  pending wn proc=%d ts=%d owner=%v vc=%v", wn.proc, wn.ts, wn.owner(), wn.vc)
	}
	return s
}

// SpanFetchPlan: one home fetch — exactly what one MakeValid round
// issues. The discard pass over the pending notices mirrors MakeValid's.
func (hlrcPolicy) SpanFetchPlan(n *Node, pg int, ps *pageState) (int, []wnRef, bool) {
	n.dropApplied(ps)
	if ps.data != nil && len(ps.pending) == 0 {
		return -1, nil, true // current copy: only the status needs raising
	}
	home := n.resolveHome(pg)
	if home == n.id {
		// The home materializes its own initial copy (or reports a stale
		// one loudly) on the serial path.
		return 0, nil, false
	}
	return home, nil, true
}

// SpanSettle: the installed home copy dominates every notice received
// before the batch went out (the flush-before-release guarantee), so the
// discard pass clears them; anything left raced the batch and settles
// through the serial home-fetch loop.
func (hlrcPolicy) SpanSettle(n *Node, pg int, ps *pageState) {
	n.dropApplied(ps)
	if ps.data == nil || len(ps.pending) > 0 {
		n.validate(pg)
	}
	if ps.status == pageInvalid {
		ps.status = pageReadOnly
	}
}

// OnIntervalClose eagerly converts the interval's twins into diffs and
// pushes them to each page's home, then retires them locally. Process
// context: runs inside the release-class event, before its messages go
// out, so the happened-before guarantee MakeValid relies on holds. Under
// mixed per-page policies only the notices on self's pages are this
// policy's business.
func (hlrcPolicy) OnIntervalClose(n *Node, self Protocol, ts int32) {
	lg := &n.logs[n.id]
	row := lg.rows[ts-lg.base]
	perHome := make(map[int][]*mem.Diff)
	var flushed []wnKey
	for i, wn := range lg.wns[row.wn : row.wn+row.nwn] {
		pg := int(wn.page)
		ps := n.pages[pg]
		if ps.proto != self {
			continue
		}
		if ps.undiffed != (wnRef{proc: int32(n.id), ts: ts, idx: int32(i)}) {
			// Every HLRC write notice must be a fresh dirtyMW notice whose
			// twin is about to be diffed; anything else (an owner-style
			// notice, an already-diffed one) would be published to peers
			// without its data ever reaching the home, which readers would
			// only notice much later as an unsettleable page.
			panic(fmt.Sprintf("dsm: hlrc node %d closed interval with unflushable notice for page %d", n.id, pg))
		}
		k := ps.undiffed.key(pg)
		d := n.makeDiff(pg, ps)
		n.proc.Advance(n.c.params.diffCost(d))
		if home := n.resolveHome(pg); home != n.id {
			perHome[home] = append(perHome[home], d)
		} else {
			// This node is the page's home: the write is already in the
			// home copy (the writer's own data), no flush travels.
			n.Stats.HomeLocalDiffs++
		}
		flushed = append(flushed, k)
	}
	if len(perHome) > 0 {
		// The flush carries a view of the interval's clock in the log:
		// the log is not cut while this node's process is blocked here.
		ivc := lg.vc(row, n.c.params.Procs)
		var targets []transport.Target
		for p := 0; p < n.c.params.Procs; p++ {
			if ds, ok := perHome[p]; ok {
				m := hlrcFlush{VC: ivc, Diffs: ds}
				n.Stats.HomeFlushes++
				n.Stats.HomeFlushBytes += int64(m.Size())
				targets = append(targets, transport.Target{To: p, M: m})
			}
		}
		n.c.rt.Multicall(n.proc, targets)
	}
	// Every home has acknowledged: the diffs (and twins) are garbage.
	for _, k := range flushed {
		n.dropDiff(k)
	}
}

// serveHLRCFlush applies a writer's flushed diffs to this home's copy
// (handler context; the apply cost is charged as reply latency). Applying
// to a live twin as well preserves this node's own write detection, like
// applyDiffs does.
func (n *Node) serveHLRCFlush(c transport.Call, from int, m hlrcFlush) {
	var cost transport.Time
	for _, d := range m.Diffs {
		ps := n.pages[d.Page]
		if ps.proto != HLRC {
			// The writer runs the page under HLRC and the home does not
			// yet: the home has not applied the switch, let alone drained
			// the page's MW history, and joining the flush's clock into
			// applied would drop the pre-switch notices still pending.
			// The quiescent round after every →HLRC switch rules this out.
			panic(fmt.Sprintf("dsm: hlrc flush from node %d reached home %d before it switched page %d (running %v)",
				from, n.id, d.Page, ps.proto))
		}
		if hm := n.homes[d.Page]; int(hm) != n.id {
			// Flushes go only to homes, so one for a page this node has
			// not bound yet (first touch; its bind reply may still be in
			// flight) binds it here. A flush to another node's page is a
			// bug.
			if hm >= 0 {
				panic(fmt.Sprintf("dsm: hlrc flush from node %d for page %d reached node %d, not its home %d",
					from, d.Page, n.id, hm))
			}
			n.homes[d.Page] = int32(n.id)
		}
		if ps.data == nil {
			// A first-touch home can receive its first flush before its own
			// MakeValid materialized the copy; start from the zero page
			// (see MakeValid).
			n.c.zeroPage(ps)
		}
		n.ownData(ps)
		d.Apply(ps.data)
		if ps.twin != nil {
			n.ownTwin(ps)
			d.Apply(ps.twin)
		}
		ps.applied.Join(m.VC)
		n.Stats.DiffsApplied++
		cost += n.c.params.applyCost(d)
	}
	c.ReplyAfter(cost, hlrcAck{})
}

// MemPressure: diffs are retired at every interval close and twins with
// them, so the pool never accumulates and garbage collection is never
// requested (homes must keep their copies, so the GC drop phase would be
// wrong here anyway).
func (hlrcPolicy) MemPressure(n *Node) bool { return false }

// GCEligible: HLRC pages hold no collectable state (diffs retire at flush
// time) and the home's copy must never be dropped, so the barrier-time GC
// skips them entirely.
func (hlrcPolicy) GCEligible() bool { return false }

// OnBarrierRelease truncates coherence metadata. With GC never running,
// HLRC would otherwise accumulate interval and write-notice history for
// the whole run (the other protocols reset theirs in runGC). After a
// barrier release every node's knowledge dominates the global vector, so
// any future intervalsSince call filters out intervals at or below it —
// they can be cut from the logs, along with the known notices they back
// on HLRC pages. The per-page pruning must not touch pages under other
// protocols: the diff-based merge replays from knownWNs at installPage
// time. The cut stops at the oldest row any page still names (cutLogs).
//
// An HLRC page's last own write at or below the global vector is let go
// too. Under HLRC it only tells ingestWN whether a foreign notice is
// concurrent with it, and none can be: every notice ingested from now on
// is of an interval closed after this barrier, whose clock dominates the
// global vector and so this write's. Held, it would pin the node's own log
// from the oldest page it ever wrote (HLRC pages do not leave HLRC, and
// no collection clears them).
func (hlrcPolicy) OnBarrierRelease(n *Node, self Protocol) {
	for _, ps := range n.pages {
		if ps.proto != self {
			continue
		}
		ps.knownWNs = slices.DeleteFunc(ps.knownWNs, func(r wnRef) bool { return r.ts <= n.lastGlobal[r.proc] })
		if ps.myLastWN.ts <= n.lastGlobal[n.id] {
			ps.myLastWN = wnRef{}
		}
	}
	n.cutLogs(n.lastGlobal)
}
