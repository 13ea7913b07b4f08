package core

import (
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// One-sided region reads: the software analogue of RDMA READ over the tcp
// runtime's dedicated region lane (transport.OneSided). Each node exports
// an array of per-page snapshot slots; the transport's region server
// goroutine answers regionReadReq/regionSpanReq straight from the slots —
// no protocol handler, no node state lock — and reports "not served"
// whenever a slot is empty, sending the requester down the ordinary
// handler path.
//
// Publishing is serve-driven: a slot is filled when the protocol handler
// serves a whole-page fetch (snapshotPage), because at that moment the
// snapshot it just built is exactly what the handler would serve again,
// and it stays exact until the page next mutates. Every mutation of
// ps.data / ps.applied retracts the slot first (invalidateRegion), so a
// region serve is always byte-for-byte the reply the handler path would
// have produced — which is what keeps the sim/tcp traffic-count
// equivalence pins intact: a served one-sided read charges precisely the
// pageReq/pageResp (or spanFetchReq/spanFetchResp) pair it replaced, and
// a failed probe charges nothing and falls back to the fully-charged
// handler path.
//
// A serve racing a retraction may still hand out the just-retracted
// snapshot; that is linearizable (the request "arrived" before the
// mutation — the handler path has the same window) and the snapshot is
// immutable, so no torn page is ever visible.

// regionPub is one published page snapshot: the data copy built by
// snapshotPage and the applied vector it reflects. Immutable once stored.
type regionPub struct {
	data    []byte
	applied vc.VC
}

// publishRegion exports the snapshot the handler just served for pg.
// data/applied must be fresh copies that no protocol code will mutate
// (snapshotPage builds exactly that for the reply).
func (n *Node) publishRegion(pg int, ps *pageState, data []byte, applied vc.VC) {
	if n.region == nil || !ps.policy.PublishOneSided(ps) {
		return
	}
	n.region[pg].Store(&regionPub{data: data, applied: applied})
	ps.published = true
}

// invalidateRegion retracts pg's published snapshot. It must run before
// any mutation of ps.data or ps.applied; the published flag keeps the
// no-region and not-published cases to one branch on the hot write path.
func (n *Node) invalidateRegion(pg int, ps *pageState) {
	if !ps.published {
		return
	}
	ps.published = false
	n.region[pg].Store(nil)
}

// serveRegion is the transport's region-server callback for this node. It
// runs on a dedicated goroutine, concurrently with handlers and the
// application body; it touches nothing but the atomic slots. A span read
// is all-or-nothing: any unpublished page fails the whole request, so the
// fallback spanFetchReq sees the same page set the plan built.
func (n *Node) serveRegion(from int, req transport.Msg) (transport.Msg, bool) {
	switch m := req.(type) {
	case regionReadReq:
		pub := n.loadPub(m.Page)
		if pub == nil {
			return regionReadResp{}, false
		}
		return regionReadResp{Data: pub.data, Applied: pub.applied}, true
	case regionSpanReq:
		resp := regionSpanResp{Pages: make([]spanPageCopy, len(m.Pages))}
		for i, pg := range m.Pages {
			pub := n.loadPub(pg)
			if pub == nil {
				return regionSpanResp{}, false
			}
			resp.Pages[i] = spanPageCopy{Page: pg, Served: true, Data: pub.data, Applied: pub.applied}
		}
		return resp, true
	}
	return nil, false
}

func (n *Node) loadPub(pg int) *regionPub {
	if pg < 0 || pg >= len(n.region) {
		return nil
	}
	return n.region[pg].Load()
}

// oneSidedFetch attempts to serve a whole-page fetch from target's region,
// returning the equivalent pageResp. A miss (no region lane, unpublished
// page) counts a fallback and leaves the caller on the handler path.
func (n *Node) oneSidedFetch(pg, target int) (pageResp, bool) {
	os := n.c.oneSided
	if os == nil || target == n.id {
		return pageResp{}, false
	}
	resp, ok := os.OneSidedRead(n.proc, target, regionReadReq{Page: pg})
	if !ok {
		n.Stats.OneSidedFallbacks++
		return pageResp{}, false
	}
	n.Stats.OneSidedReads++
	rr := resp.(regionReadResp)
	return pageResp{Data: rr.Data, Applied: rr.Applied}, true
}

// oneSidedSpanFetch attempts to serve a whole span-fetch destination from
// target's region. Only diff-less plans qualify (diff bundles need the
// handler); ok=false falls back to the batched spanFetchReq.
func (n *Node) oneSidedSpanFetch(target int, pages []int) ([]spanPageCopy, bool) {
	os := n.c.oneSided
	if os == nil || target == n.id || len(pages) == 0 {
		return nil, false
	}
	resp, ok := os.OneSidedRead(n.proc, target, regionSpanReq{Pages: pages})
	if !ok {
		n.Stats.OneSidedFallbacks++
		return nil, false
	}
	n.Stats.OneSidedReads++
	return resp.(regionSpanResp).Pages, true
}
