package core

import (
	"fmt"
	"slices"

	"adsm/internal/transport"
)

// Ownership machinery: the adaptive ownership refusal protocol (Section
// 3.1.1) and the pure single-writer protocol with static homes, a request
// queue per page and the ownership quantum (Section 2.3).

// --- adaptive protocols (WFS, WFS+WG) ---

// writeFaultAdaptive services a write fault under WFS/WFS+WG, dispatching
// on the page's state variable.
func (n *Node) writeFaultAdaptive(pg int, ps *pageState) {
	if ps.mode == modeMW {
		// I dropped ownership earlier but remain the grant authority:
		// self-reacquire when adaptation says false sharing has stopped.
		if ps.wasLast && n.shouldResumeSW(ps) {
			if ps.status == pageInvalid {
				n.validate(pg)
			}
			if n.reacquire(pg, ps) {
				return
			}
			// A handler granted the authority away while validate blocked.
		}
		if n.shouldResumeSW(ps) && n.tryOwnership(pg, ps, true) {
			return
		}
		n.stayMW(pg, ps)
		return
	}

	// SW mode: request ownership from the last perceived owner. A refusal
	// detects write-write false sharing and flips the page to MW.
	if ps.perceivedOwner == n.id {
		// Stale self-perception with no authority: treat as refusal.
		n.setMode(ps, modeMW)
		ps.seesFS = true
		n.stayMW(pg, ps)
		return
	}
	if n.tryOwnership(pg, ps, false) {
		return
	}
	n.setMode(ps, modeMW)
	n.stayMW(pg, ps)
}

// stayMW completes a write fault on the multiple-writer path. Notices can
// arrive during any of the blocking steps (validate's fetches, the twin
// copy cost), so the page is re-merged until it settles before being made
// writable.
func (n *Node) stayMW(pg int, ps *pageState) {
	if ps.status == pageInvalid || len(ps.pending) > 0 {
		n.validate(pg)
	}
	n.makeTwin(pg, ps)
	for len(ps.pending) > 0 {
		// Arrived while the twin was being made: the diffs apply to both
		// the data and the twin, preserving our write detection.
		n.validate(pg)
	}
	ps.status = pageReadWrite
}

// shouldResumeSW implements the MW->SW adaptation checks of Section 3.1.2:
// no locally-perceived false sharing, every copyset member reported that it
// sees the page as single-writer, and (WFS+WG only) the page's diffs are
// large enough that whole-page moves win.
func (n *Node) shouldResumeSW(ps *pageState) bool {
	if ps.seesFS {
		return false
	}
	for _, fs := range ps.copysetFS {
		if fs {
			return false
		}
	}
	return ps.policy.AllowSWByGranularity(n, ps)
}

// tryOwnership issues an ownership request to the last perceived owner
// (always two messages, never forwarded). Returns true when ownership was
// granted; on refusal the caller switches the page to MW.
func (n *Node) tryOwnership(pg int, ps *pageState, resume bool) bool {
	// If diff-backed write notices are pending, merge them first so that
	// the grant (whole-page semantics) starts from a complete copy.
	if n.pendingDiffs(ps) {
		n.validate(pg)
	}

	best, pending := n.bestOwnerWN(ps)
	target := ps.perceivedOwner
	version := ps.perceivedVersion
	if pending && best.version() >= version {
		target = int(best.proc)
		version = best.version()
	}
	if target == n.id {
		return false
	}
	n.Stats.OwnershipRequests++
	resp := n.c.rt.Call(n.proc, target, ownReq{
		Page:     pg,
		Version:  version,
		NeedPage: ps.data == nil || (pending && !best.vc.Leq(ps.applied)),
		Resume:   resume,
		Applied:  ps.applied.Copy(),
	}).(ownResp)
	return n.finishOwnership(pg, ps, resp)
}

// finishOwnership ingests an ownership reply, installing whatever page
// copy rode along and completing the grant (or recording the refusal).
// Returns true when ownership was taken.
func (n *Node) finishOwnership(pg int, ps *pageState, resp ownResp) bool {
	if !resp.Granted && resp.Data == nil {
		// Refused without a page transfer: leave the pending notices
		// untouched; the MW fault path will run the full merge.
		ps.seesFS = true
		return false
	}

	if resp.Data != nil {
		n.Stats.PageFetches++
		n.installPage(pg, ps, resp.Data, resp.Applied)
	}
	// With a chain copy installed (or our copy provably current), owner
	// write notices are subsumed; concurrent diff-backed notices must
	// still be applied.
	rest := n.pendingDiffRefs(ps)
	ps.pending = ps.pending[:0]
	if len(rest) > 0 {
		n.fetchDiffs(pg, ps, rest)
		n.applyDiffs(pg, ps, rest)
	}

	if !resp.Granted {
		ps.seesFS = true
		if ps.status == pageInvalid && ps.data != nil {
			ps.status = pageReadOnly
		}
		return false
	}

	n.becomeOwner(pg, ps, resp.Version)
	ps.seesFS = false
	for len(ps.pending) > 0 {
		// Notices ingested while the grant was in flight.
		n.validate(pg)
	}
	return n.ownWrite(pg, ps)
}

// serveOwnership handles an incoming adaptive ownership request (handler
// context). Grant iff this node is still the (last) owner at the version
// the requester perceives and has no uncommitted single-writer writes;
// otherwise write-write false sharing has been detected and the request is
// refused (Section 3.1.1).
func (n *Node) serveOwnership(c transport.Call, from int, m ownReq) {
	ps := n.pages[m.Page]
	resp := ownResp{Version: ps.version}
	send := m.NeedPage && ps.data != nil
	if ps.canHandAway(m.Version) {
		// The grantor learns who took ownership (for routing) but NOT the
		// new version number: "when p1 writes to the page, it no longer
		// has an up-to-date value of the version number, indicating the
		// onset of write-write false sharing" (paper Section 3.1.1). Only
		// the requester increments; everyone else learns the new version
		// through owner write notices at synchronization.
		resp.Granted, resp.Version = true, ps.version+1
		send = m.NeedPage || !ps.applied.Leq(m.Applied)
		n.handAway(m.Page, ps, from, resp.Version, false)
		n.Stats.OwnershipGrants++
	} else {
		n.Stats.OwnershipRefusals++
		ps.seesFS = true
		if ps.owner {
			n.dropOwner(m.Page, ps)
		}
	}
	if send {
		resp.Data, resp.Applied = n.serveFrame(ps)
	}
	c.Reply(resp)
}

// --- pure single-writer protocol ---

// Ownership requests queue the way lock acquires do (locks.go), after Li
// and Hudak's fixed distributed manager. A page's home records the last
// node whose request reached it (pageState.swLast; node 0, the allocator
// and first owner, to begin with) and forwards each request to that node
// exactly once. That node owns the page or is waiting for its own grant,
// and holds the request in its successor slot until its ownership quantum
// is over. Each request is forwarded at most once, so none can loop: it
// costs 2 messages when the home is the last requester and 3 otherwise.

// writeFaultSW requests ownership through the page's home (assigned by
// the cluster's home policy); ownership and the page arrive from the
// previous requester once its quantum is over.
func (n *Node) writeFaultSW(pg int, ps *pageState) {
	n.Stats.OwnershipRequests++
	resp := n.c.rt.Call(n.proc, n.resolveHome(pg), swOwnReq{Page: pg}).(swOwnGrant)
	n.Stats.PageFetches++
	n.installPage(pg, ps, resp.Data, resp.Applied)
	// In the pure SW protocol every write notice is an owner write notice,
	// and the granted copy is the newest link of the ownership chain, so
	// it subsumes anything that arrived while the request was in flight.
	ps.pending = ps.pending[:0]
	n.becomeOwner(pg, ps, resp.Version)
	n.ownWrite(pg, ps)
	if ps.swNext != nil {
		// The next requester's request reached us before our grant did.
		n.scheduleSWGrant(pg, ps)
	}
}

// serveSWOwn handles a single-writer ownership request (handler context).
// At the home (Hops 0) the requester becomes the page's last requester and
// the request goes on to the previous one; the node it reaches, the home
// included when it was that node, queues it.
func (n *Node) serveSWOwn(c transport.Call, from int, m swOwnReq) {
	ps := n.pages[m.Page]
	if m.Hops == 0 {
		prev := ps.swLast
		ps.swLast = c.Origin()
		if prev != n.id {
			n.Stats.Forwards++
			c.Forward(prev, swOwnReq{Page: m.Page, Hops: 1})
			return
		}
	}
	// We own the page or are waiting for our own grant, and nobody else
	// has asked since our request reached the home.
	if ps.swNext != nil {
		panic(fmt.Sprintf("dsm: node %d holds two sw ownership requests for page %d", n.id, m.Page))
	}
	ps.swNext = c
	if ps.owner {
		n.scheduleSWGrant(m.Page, ps)
	}
}

// scheduleSWGrant grants the queued request once the quantum expires
// (immediately if it already has): the Mirage/CVM ping-pong mitigation.
func (n *Node) scheduleSWGrant(pg int, ps *pageState) {
	now := n.c.rt.Now()
	due := ps.ownedSince + n.c.params.OwnershipQuantum
	if due <= now {
		n.grantSW(pg, ps)
		return
	}
	n.c.rt.After(n.id, due-now, func() { n.grantSW(pg, ps) })
}

// grantSW transfers ownership and the page to the queued requester.
func (n *Node) grantSW(pg int, ps *pageState) {
	c := ps.swNext
	ps.swNext = nil
	requester := c.Origin()

	// Ownership transfer is a release-class event for this page: publish
	// any uncommitted writes as an owner write notice first so they remain
	// visible in the happened-before order.
	if ps.wroteSW {
		n.closePageInterval(pg)
	}
	newVer := ps.version + 1
	// In the pure SW protocol both nodes learn the new version number.
	n.handAway(pg, ps, requester, newVer, true)
	n.Stats.OwnershipGrants++
	data, applied := n.serveFrame(ps)
	c.Reply(swOwnGrant{Version: newVer, Data: data, Applied: applied})
}

// closePageInterval publishes a single page's uncommitted owner writes as
// their own interval (used when ownership is torn away mid-interval); the
// rest of the open interval stays open.
func (n *Node) closePageInterval(pg int) {
	rest := slices.DeleteFunc(n.dirty, func(d int) bool { return d == pg })
	n.dirty = []int{pg}
	n.closeInterval()
	n.dirty = rest
}
