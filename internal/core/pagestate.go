package core

import "fmt"

// The page state machine (paper Section 3.1). A node's view of a page is
// its state variable (mode), its ownership authority (owner, or wasLast
// after a drop) with the version it holds, its routing guess
// (perceivedOwner, perceivedVersion), a deferred drop (dropOwnership) and
// its write records (status, the twin with its open dirtyMW or closed
// undiffed interval, and wroteSW). Only the moves below write the first
// seven. The legal states ("-": neither owner nor last owner):
//
//	mode  authority  drop  wroteSW  twin                 read-write status
//	SW    owner      0|1   0|1      none or undiffed     legal: wroteSW records
//	SW    -          0     0        any                  only with dirtyMW
//	MW    wasLast    0     0        any                  only with dirtyMW
//	MW    -          0     0        any                  only with dirtyMW
//
// Across rows: drop ⇒ wroteSW; an owner routes to itself at its version;
// the authority holds a copy; dirtyMW and undiffed each need the twin and
// never coexist. MW and HLRC pages have no authority; pure SW pages keep
// to the first two rows. Test builds check the table after every move.
//
// The moves, and what each publishes or re-checks first:
//
//	initPage, bindHome    → SW owner at the allocator, SW -, or MW -
//	becomeOwner           grant, GC keeper, switch to WFS → SW owner
//	reacquire             MW wasLast → SW owner, if still the last owner
//	ownWrite              SW owner → read-write, if still the owner
//	handAway              SW owner, MW wasLast → SW -; wroteSW published
//	dropOwner             SW owner → MW wasLast, now or at wroteSW's release
//	learnOwner, setMode   routing; SW - ↔ MW - (the adaptation)
//	switchPage, gcCollapse  any → the new protocol's or the keeper's row
//
// reacquire and ownWrite follow blocking steps (validate, a grant's
// settle), during which a handler may grant or drop the authority.
//
// One twin rule rides along: a twin is diffed before it is rebased on a
// copy that already holds its undiffed writes (installPage). A last
// owner's grant can carry those writes out and the chain bring them back
// under later writes; replaying the twin's writes over that copy undid
// the later ones. WFS+WG lost TSP's best tour that way on the wire.

// checkPageStates makes every move check the table; the core test build
// and every binary built with -tags adsmcheck set it.
var checkPageStates bool

// checkPage panics when the page is in no legal state.
func (n *Node) checkPage(pg int, ps *pageState) {
	authority := ps.owner || ps.wasLast
	for _, r := range []struct {
		bad bool
		why string
	}{
		{ps.owner && ps.wasLast, "owner and last owner"},
		{ps.owner && ps.mode != modeSW, "owner outside SW"},
		{ps.wasLast && ps.mode != modeMW, "last owner outside MW"},
		{ps.dropOwnership && !ps.wroteSW, "drop without unpublished writes"},
		{ps.wroteSW && !ps.owner, "owner writes without ownership"},
		{ps.owner && (ps.perceivedOwner != n.id || ps.perceivedVersion != ps.version), "owner routes elsewhere"},
		{authority && ps.data == nil, "authority without a copy"},
		{(ps.dirtyMW || ps.undiffed.ok()) && ps.twin == nil, "write record without a twin"},
		{ps.dirtyMW && ps.undiffed.ok(), "open and undiffed interval on one twin"},
		{ps.status == pageReadWrite && !ps.owner && !ps.dirtyMW, "writable with no write record"},
	} {
		if r.bad {
			panic(fmt.Sprintf("dsm: node %d page %d in no legal state (%s): mode=%d owner=%v wasLast=%v drop=%v wroteSW=%v status=%d twin=%v dirtyMW=%v undiffed=%v version=%d route=%d/%d",
				n.id, pg, r.why, ps.mode, ps.owner, ps.wasLast, ps.dropOwnership, ps.wroteSW, ps.status,
				ps.twin != nil, ps.dirtyMW, ps.undiffed.ok(), ps.version, ps.perceivedOwner, ps.perceivedVersion))
		}
	}
}

// checked runs checkPage after a move in test builds.
func (n *Node) checked(pg int, ps *pageState) {
	if checkPageStates {
		n.checkPage(pg, ps)
	}
}

// initPage seeds the page's mode and whether this node starts as its
// owner; the routing guess stays the allocator, node 0.
func (ps *pageState) initPage(m pageMode, owner bool) { ps.mode, ps.owner = m, owner }

// bindHome puts an HLRC page in MW mode, routed to its home.
func (ps *pageState) bindHome(home int) { ps.mode, ps.perceivedOwner = modeMW, home }

// setMode flips the per-page state variable, counting transitions.
func (n *Node) setMode(ps *pageState, m pageMode) {
	if ps.mode == m {
		return
	}
	ps.mode = m
	if m == modeMW {
		n.Stats.SWtoMW++
	} else {
		n.Stats.MWtoSW++
	}
}

// becomeOwner takes ownership at version.
func (n *Node) becomeOwner(pg int, ps *pageState, version int32) {
	ps.owner, ps.wasLast = true, false
	ps.version, ps.perceivedOwner, ps.perceivedVersion = version, n.id, version
	ps.ownedSince = n.proc.Now()
	n.setMode(ps, modeSW)
	n.checked(pg, ps)
}

// reacquire is a last owner's self-reacquire; false when the authority
// left while the caller blocked.
func (n *Node) reacquire(pg int, ps *pageState) bool {
	if !ps.wasLast {
		return false
	}
	n.becomeOwner(pg, ps, ps.version+1)
	return n.ownWrite(pg, ps)
}

// ownWrite makes an owned page writable; false when ownership left while
// the caller blocked, and the write must then fault as a non-owner's.
func (n *Node) ownWrite(pg int, ps *pageState) bool {
	if !ps.owner {
		return false
	}
	ps.status = pageReadWrite
	n.checked(pg, ps)
	return true
}

// protect write-protects a writable page, so its next write faults.
func (ps *pageState) protect() {
	if ps.status == pageReadWrite {
		ps.status = pageReadOnly
	}
}

// canHandAway reports whether an adaptive ownership request made at
// version may be granted: this node is the authority at that version and
// holds no unpublished single-writer write.
func (ps *pageState) canHandAway(version int32) bool {
	return (ps.owner || ps.wasLast) && ps.version == version && !ps.wroteSW && !ps.dropOwnership
}

// handAway gives ownership to node to and write-protects the copy, so our
// next write faults. The pure SW grantor learns the new version; the
// adaptive one keeps its stale version by design, so its next write
// detects the onset of false sharing (Section 3.1.1).
func (n *Node) handAway(pg int, ps *pageState, to int, newVer int32, learn bool) {
	if checkPageStates && (!(ps.owner || ps.wasLast) || ps.wroteSW) {
		panic(fmt.Sprintf("dsm: node %d hands page %d away without the authority or with unpublished writes", n.id, pg))
	}
	ps.owner, ps.wasLast, ps.perceivedOwner = false, false, to
	if learn {
		ps.version, ps.perceivedVersion = newVer, newVer
	}
	ps.protect()
	n.checked(pg, ps)
}

// dropOwner drops ownership into MW mode; this node stays the grant
// authority as the last owner. Owner writes of the open interval have no
// twin and can only be published as an owner write notice, so the drop
// then waits for that release (closeInterval calls dropOwner again).
func (n *Node) dropOwner(pg int, ps *pageState) {
	ps.dropOwnership = ps.wroteSW
	if !ps.wroteSW {
		ps.owner, ps.wasLast = false, true
		ps.protect() // our next write must fault into MW mode
		n.setMode(ps, modeMW)
	}
	n.checked(pg, ps)
}

// learnOwner routes the page to the writer of a newer owner write notice.
func (n *Node) learnOwner(ps *pageState, wn notice) {
	if wn.version() >= ps.perceivedVersion && int(wn.proc) != n.id {
		ps.perceivedOwner, ps.perceivedVersion = int(wn.proc), wn.version()
		n.checked(int(wn.page), ps)
	}
}

// switchPage moves the page to protocol target at a barrier epoch, and
// counts the switch: it washes the old protocol's authority and adaptation
// state and seeds the new one's row. The mode flips without setMode: a
// protocol switch is not an SW/MW adaptation.
func (n *Node) switchPage(pg int, ps *pageState, target Protocol, sw policySwitch) {
	ps.owner, ps.wasLast, ps.dropOwnership = false, false, false
	ps.wroteSW, ps.seesFS, ps.copysetFS, ps.wgProbed = false, false, nil, false
	ps.protect()
	n.Stats.PolicySwitches++
	switch target {
	case WFS, WFSWG:
		n.Stats.SwitchToSW++
		ps.mode = modeSW
		if sw.Owner == n.id {
			n.becomeOwner(pg, ps, sw.Version)
		} else {
			ps.perceivedOwner, ps.perceivedVersion = sw.Owner, sw.Version
		}
	case HLRC:
		n.Stats.SwitchToHLRC++
		ps.bindHome(n.resolveHome(pg))
	default: // MW
		n.Stats.SwitchToMW++
		ps.mode = modeMW
	}
	ps.proto, ps.policy = target, policies[target]
	n.checked(pg, ps)
}

// gcCollapse applies a collection's verdict: an adaptive page collapses to
// SW mode owned by the keeper at h.Version (Section 3.1.1); an MW page
// only routes to the keeper.
func (n *Node) gcCollapse(ps *pageState, h gcHint, adaptive bool) {
	ps.dropOwnership = false
	switch {
	case adaptive && n.id == h.Owner:
		n.becomeOwner(h.Page, ps, h.Version)
	case adaptive:
		n.setMode(ps, modeSW)
		ps.owner, ps.wasLast, ps.version = false, false, h.Version
		fallthrough
	default:
		ps.perceivedOwner, ps.perceivedVersion = h.Owner, h.Version
	}
	n.checked(h.Page, ps)
}
