package core

import (
	"fmt"
	"slices"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// This file implements the merge procedure that makes an invalid page
// valid: fetching an owner copy when owner write notices are pending,
// discarding dominated notices, and fetching and applying the remaining
// diffs in happened-before order (paper Section 3.1.1, "Merging Single
// Writer Copies and Diffs"). The same code services pure-MW misses (no
// owner write notices ever) and pure-SW misses (no diffs ever).

// bestOwnerWN returns the pending owner write notice with the highest
// version (ties broken by interval VC domination); ok is false when no
// owner notice is pending.
func (n *Node) bestOwnerWN(ps *pageState) (best notice, ok bool) {
	for _, r := range ps.pending {
		wn := n.wn(r)
		if !wn.owner() {
			continue
		}
		if !ok || wn.version() > best.version() ||
			(wn.version() == best.version() && best.vc.Leq(wn.vc)) {
			best, ok = wn, true
		}
	}
	return best, ok
}

// validate brings the page up to date with all write notices this node has
// received, leaving it valid. How a page becomes valid is protocol policy:
// the LRC protocols run the merge procedure below, HLRC fetches the home
// copy. Runs in process context.
func (n *Node) validate(pg int) {
	ps := n.pages[pg]
	ps.policy.MakeValid(n, pg, ps)
}

// lrcMakeValid is the MakeValid of the diff-based LRC protocols (MW, SW,
// WFS, WFS+WG). It loops because its RPCs block: a write notice can be
// ingested (by a synchronization message handled for another reason, e.g.
// this node is the barrier manager) while a fetch is in flight, and must
// be merged before the page may be declared valid — the classic reentrancy
// hazard of TreadMarks' SIGIO handler.
func (n *Node) lrcMakeValid(pg int, ps *pageState) {
	for round := 0; ; round++ {
		if round > 1000 {
			panic(fmt.Sprintf("dsm: node %d cannot settle page %d", n.id, pg))
		}
		n.mergeOnce(pg, ps)
		if len(ps.pending) == 0 {
			break
		}
	}
	if ps.status == pageInvalid && ps.data != nil {
		ps.status = pageReadOnly
	}
}

// mergeSource returns the node whose whole copy the next merge round
// fetches: the writer of the newest pending owner notice our copy lacks,
// or the perceived owner when we have no copy; -1 when none is needed.
func (n *Node) mergeSource(ps *pageState) int {
	best, ok := n.bestOwnerWN(ps)
	if ps.owner && ok && best.version() <= ps.version {
		// We are the chain head: older owner copies are subsumed by ours.
		ok = false
	}
	switch {
	case ok && (ps.data == nil || !best.vc.Leq(ps.applied)):
		return int(best.proc)
	case ps.data == nil:
		return ps.perceivedOwner
	}
	return -1
}

// pendingDiffs reports whether a diff-backed notice our copy lacks is
// pending.
func (n *Node) pendingDiffs(ps *pageState) bool {
	for _, r := range ps.pending {
		if wn := n.wn(r); !wn.owner() && !wn.vc.Leq(ps.applied) {
			return true
		}
	}
	return false
}

// mergeOnce performs one merge pass over the currently pending notices.
func (n *Node) mergeOnce(pg int, ps *pageState) {
	// Notices past known are ingested while the fetch below blocks.
	known := len(ps.pending)
	if target := n.mergeSource(ps); target == n.id {
		if ps.data == nil {
			panic(fmt.Sprintf("dsm: node %d is fetch target for page %d but has no copy", n.id, pg))
		}
	} else if target >= 0 {
		n.fetchPage(pg, ps, target)
	}

	// Partition the pending notices: drop everything reflected in our
	// copy; drop the owner write notices known before the fetch, which
	// the fetched owner copy subsumes (the grant chain guarantees each
	// owner's copy contains all earlier owners' writes, and the copy was
	// served after they were published); keep diff-backed notices to
	// apply. An owner notice ingested while the fetch was in flight may be
	// newer than the copy: it stays pending for the next round.
	var rest, late []wnRef
	for i, r := range ps.pending {
		switch wn := n.wn(r); {
		case wn.vc.Leq(ps.applied):
		case wn.owner() && i >= known:
			late = append(late, r)
		case wn.owner():
		default:
			rest = append(rest, r)
		}
	}
	ps.pending = append(ps.pending[:0], late...)

	if len(rest) > 0 {
		n.fetchDiffs(pg, ps, rest)
		n.applyDiffs(pg, ps, rest)
	}
}

// fetchPage retrieves a whole-page copy from target's pageReq handler and
// installs it, preserving any uncommitted local writes recorded under a
// twin.
func (n *Node) fetchPage(pg int, ps *pageState, target int) {
	resp := n.c.rt.Call(n.proc, target, pageReq{Page: pg}).(pageResp)
	n.Stats.PageFetches++
	n.installPage(pg, ps, resp.Data, resp.Applied)
}

// installPage replaces the local copy with fetched contents by adopting
// the received frame (frame.go). The incoming copy's applied vector need
// not dominate ours (two owner copies can be incomparable during
// transitions), so every diff-backed write our old copy reflected that the
// new copy misses is replayed — re-fetching the diff from its writer if it
// is not cached. Writes held under a twin (this node's newest,
// not-yet-diffed modifications) are re-applied last and only to the data,
// keeping the twin a pristine base: the received frame becomes the twin,
// and the data moves onto a private copy when something is applied to it.
// applied must not alias ps.applied. Runs in process context.
func (n *Node) installPage(pg int, ps *pageState, data []byte, applied []int32) {
	if ps.undiffed.ok() && n.ivc(ps.undiffed).Leq(applied) {
		// The incoming copy already holds our undiffed writes (a grant
		// carried them out and the chain brought them back), perhaps
		// under later writes that replaying them would undo. Diff them
		// now, and let the copy replace ours whole.
		n.makeDiff(pg, ps)
	}

	// Diff-backed writes our old copy had that the new copy misses.
	var replay []wnRef
	for _, r := range ps.knownWNs {
		wn := n.wn(r)
		if wn.owner() {
			// Owner-copy content is preserved by the grant chain: every
			// owner's copy contains all earlier owners' writes.
			continue
		}
		if !wn.vc.Leq(ps.applied) || wn.vc.Leq(applied) {
			continue
		}
		if int(r.proc) == n.id && n.diffCache[r.key(pg)] == nil {
			// Our own writes with no cached diff: under the LRC protocols
			// they are still-undiffed and ride along in `mine`; under HLRC
			// the diff was flushed home and retired, and the fetched home
			// copy's applied vector already dominates them (the Leq filter
			// above drops them before reaching here).
			continue
		}
		replay = append(replay, r)
	}

	var mine *mem.Diff
	if ps.twin != nil {
		mine = mem.MakeDiff(pg, ps.twin, ps.data)
		n.release(ps.twin, ps.twinShared)
		ps.twin, ps.twinShared = data, true
	}
	n.adopt(ps, data)
	ps.applied = append(ps.applied[:0], applied...)
	if ps.undiffed.ok() {
		// Committed-but-undiffed writes are re-applied via `mine`.
		ps.applied.Join(n.ivc(ps.undiffed))
	}

	if len(replay) > 0 {
		n.fetchDiffs(pg, ps, replay)
		for _, r := range n.orderWNs(replay) {
			d := n.diffCache[r.key(pg)]
			if d == nil {
				panic("dsm: replay diff unavailable")
			}
			n.ownData(ps)
			d.Apply(ps.data)
			if ps.twin != nil {
				n.ownTwin(ps)
				d.Apply(ps.twin)
			}
			ps.applied.Join(n.ivc(r))
		}
	}
	if mine != nil && mine.NumRuns() > 0 {
		n.ownData(ps)
		mine.Apply(ps.data)
	}
}

// fetchDiffs retrieves the diffs for the given write notices that are not
// already cached, batching one request per writer and issuing them in
// parallel (TreadMarks behaviour). Piggybacks this node's false-sharing
// perception (adaptive mechanism 1). The per-writer key lists are the
// node's scratch: each request's list is read by the writer's handler (or
// encoded) before its reply, so the lists are free again when Multicall
// returns, and fetchDiffs runs in process context only.
func (n *Node) fetchDiffs(pg int, ps *pageState, wns []wnRef) {
	writers := 0
	if n.wants == nil {
		n.wants = make([][]wnKey, n.c.params.Procs)
	}
	for p := range n.wants {
		n.wants[p] = n.wants[p][:0]
	}
	for _, r := range wns {
		k := r.key(pg)
		if n.diffCache[k] != nil {
			continue
		}
		if int(r.proc) == n.id {
			panic("dsm: own write notice pending")
		}
		if len(n.wants[r.proc]) == 0 {
			writers++
		}
		n.wants[r.proc] = append(n.wants[r.proc], k)
	}
	if writers == 0 {
		return
	}
	targets := make([]transport.Target, 0, writers)
	for p, ks := range n.wants {
		if len(ks) > 0 {
			targets = append(targets, transport.Target{
				To: p,
				M:  diffReq{Page: pg, Wants: ks, SeesFS: ps.seesFS},
			})
		}
	}
	resps := n.c.rt.Multicall(n.proc, targets)
	for _, r := range resps {
		dr := r.(diffResp)
		for i, d := range dr.Diffs {
			k := dr.Keys[i]
			if !slices.ContainsFunc(wns, func(r wnRef) bool { return r.key(pg) == k }) {
				panic("dsm: received diff for unknown write notice")
			}
			n.storeDiff(k, d, false)
		}
	}
}

// pendingHas reports whether the page's pending notices include the one
// whose diff k names.
func pendingHas(ps *pageState, k wnKey) bool {
	return slices.ContainsFunc(ps.pending, func(r wnRef) bool { return int(r.proc) == k.proc && r.ts == k.ts })
}

// applyDiffs applies the diffs for the write notices in happened-before
// order, charging the per-diff application cost.
func (n *Node) applyDiffs(pg int, ps *pageState, wns []wnRef) {
	for _, r := range n.orderWNs(wns) {
		k := r.key(pg)
		d := n.diffCache[k]
		if d == nil {
			panic("dsm: missing diff at apply time")
		}
		n.notePushUsed(k)
		n.ownData(ps)
		d.Apply(ps.data)
		if ps.twin != nil {
			n.ownTwin(ps)
			d.Apply(ps.twin)
		}
		ps.applied.Join(n.ivc(r))
		n.noteDiff(pg, ps, d.DataBytes(), false)
		n.Stats.DiffsApplied++
		n.proc.Advance(n.c.params.applyCost(d))
	}
}

// --- server side ---

// snapshotPage runs the serve-side policy hook and hands out the page's
// frame (serveFrame) for a reply to `from`. Shared by the serial pageReq
// handler and the batched span-fetch handler so the two paths cannot
// drift. The frame is shared from here on: this node's next store moves
// onto a private copy, so the requester installs the page as it stood
// now. Handler context.
func (n *Node) snapshotPage(from, pg int, ps *pageState) ([]byte, vc.VC) {
	ps.policy.OnServePage(n, from, pg, ps)
	return n.serveFrame(ps)
}

// heldDiff resolves one diff this node holds: cached, or its own pending
// twin's, created lazily here (the creation cost is returned so callers
// can charge it as reply latency). ok is false for a diff it does not
// have. Handler or process context; charges no process time.
func (n *Node) heldDiff(pg int, ps *pageState, k wnKey) (d *mem.Diff, cost transport.Time, ok bool) {
	if d = n.diffCache[k]; d != nil {
		return d, 0, true
	}
	if ps.undiffed.ok() && ps.undiffed.key(pg) == k {
		d = n.makeDiff(pg, ps)
		return d, n.c.params.diffCost(d), true
	}
	return nil, 0, false
}

// serveDiffKey resolves one requested diff through heldDiff, panicking
// loudly on a diff this node does not have. Shared by the serial diffReq
// handler and the batched span-fetch handler. Handler context.
func (n *Node) serveDiffKey(pg int, ps *pageState, k wnKey) (*mem.Diff, transport.Time) {
	d, cost, ok := n.heldDiff(pg, ps, k)
	if !ok {
		panic(fmt.Sprintf("dsm: node %d asked for diff %+v it does not have", n.id, k))
	}
	return d, cost
}

// servePage handles a pageReq: reply with our copy's frame, or forward
// along the perceived-owner chain if we have none.
func (n *Node) servePage(c transport.Call, from int, m pageReq) {
	ps := n.pages[m.Page]
	if ps.data == nil {
		if m.Hops > 4*n.c.params.Procs {
			panic(fmt.Sprintf("dsm: page %d request forwarding loop", m.Page))
		}
		target := ps.perceivedOwner
		if target == n.id {
			panic(fmt.Sprintf("dsm: node %d asked for page %d it never had", n.id, m.Page))
		}
		n.Stats.Forwards++
		c.Forward(target, pageReq{Page: m.Page, Hops: m.Hops + 1})
		return
	}
	data, applied := n.snapshotPage(from, m.Page, ps)
	c.Reply(pageResp{Data: data, Applied: applied})
}

// serveDiffs handles a diffReq: create missing diffs lazily (charged as
// reply latency) and record the requester's false-sharing perception in
// the copyset (adaptive mechanism 1).
func (n *Node) serveDiffs(c transport.Call, from int, m diffReq) {
	ps := n.pages[m.Page]
	ps.policy.OnServeDiffs(n, from, ps, m.SeesFS)
	var cost transport.Time
	resp := diffResp{Diffs: make([]*mem.Diff, len(m.Wants)), Keys: make([]wnKey, len(m.Wants))}
	for i, k := range m.Wants {
		d, dc := n.serveDiffKey(m.Page, ps, k)
		cost += dc
		resp.Diffs[i], resp.Keys[i] = d, k
	}
	c.ReplyAfter(cost, resp)
}
