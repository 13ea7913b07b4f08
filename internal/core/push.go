package core

import (
	"adsm/internal/mem"
	"adsm/internal/transport"
)

// Lock grants carry diffs (the lazy hybrid protocol of Dwarkadas, Keleher,
// Cox & Zwaenepoel, ISCA 1993). Under lazy invalidate a grant brings write
// notices and the acquirer's next access faults and asks every writer for
// its diff: a second round trip. The granter usually holds those diffs
// already (it wrote them, or fetched them when it faulted on the page
// itself), so it piggybacks them on the grant, up to the cost profile's
// PushBudget bytes. The acquirer stores the ones its fault would fetch;
// fetchDiffs skips cached keys, so the fault sends nothing for them. A
// push is a pure cache fill: which notices are applied, when, and in what
// order is unchanged, and a push the acquirer cannot use is dropped on
// arrival.
//
// Only pages under MW push. WFS and WFS+WG learn the readers' false
// sharing perception from their diff requests (mechanism 1 of Section
// 3.1.2), which a push would silence, and HLRC validates from the home
// copy, not from diffs.

// pushable reports whether the page's diffs ride lock grants.
func pushable(ps *pageState) bool { return ps.proto == MW }

// pushDiffs collects the diffs a grant shipping ivs carries: one for each
// non-owner write notice in them that this node holds, cached or its own
// still-undiffed one (made now, as a diff request would), in shipping
// order until the budget is spent. The scan stops before making a diff
// once what is left of the budget could not hold even an empty one. cost
// is the modelled time to make the carried diffs created here, which the
// grant's reply is delayed by; the one diff made and found too big for
// the rest of the budget stays cached for the fault that fetches it, and
// does not delay the grant.
func (n *Node) pushDiffs(ivs ivBatch) (diffs []*mem.Diff, keys []wnKey, cost transport.Time) {
	budget := n.c.params.Cost.PushBudget
	if budget <= 0 {
		return nil, nil, 0
	}
	w := 0
scan:
	for _, h := range ivs.Heads {
		wns := ivs.WNs[w : w+int(h.nwn)]
		w += int(h.nwn)
		for _, wn := range wns {
			pg := int(wn.page)
			ps := n.pages[pg]
			if wn.owner() || !pushable(ps) {
				continue
			}
			k := wnKey{page: pg, proc: int(h.proc), ts: h.ts}
			if budget < keyLen(k)+(&mem.Diff{Page: pg}).EncodedSize() {
				break scan
			}
			d, dc, ok := n.heldDiff(pg, ps, k)
			if !ok {
				continue
			}
			size := keyLen(k) + d.EncodedSize()
			if size > budget {
				break scan
			}
			budget -= size
			cost += dc
			diffs = append(diffs, d)
			keys = append(keys, k)
		}
	}
	n.Stats.DiffsPushed += int64(len(diffs))
	return diffs, keys, cost
}

// acceptPushes stores the diffs a grant pushed whose notice is known here
// (the grant's intervals are ingested first), whose page has a local copy,
// and which that copy does not reflect yet: exactly the diffs the next
// fault on the page would fetch. A page's pending notices are the known
// ones its copy does not reflect (ingestWN), so the notice must be
// pending. Every other push is dropped. A stored push is remembered until
// applyDiffs applies it (notePushUsed) or garbage collection discards it,
// so a push that a whole-page fetch supersedes counts as unused. Process
// context.
func (n *Node) acceptPushes(g acqGrant) {
	for i, d := range g.Diffs {
		k := g.Keys[i]
		ps := n.pages[k.page]
		if ps.data == nil || !pushable(ps) || n.diffCache[k] != nil || !pendingHas(ps, k) {
			n.Stats.PushesDropped++
			continue
		}
		n.storeDiff(k, d, false)
		if n.pushed == nil {
			n.pushed = make(map[wnKey]struct{})
		}
		n.pushed[k] = struct{}{}
	}
}

// notePushUsed counts a stored push the first time a fault applies it.
func (n *Node) notePushUsed(k wnKey) {
	if _, ok := n.pushed[k]; ok {
		delete(n.pushed, k)
		n.Stats.PushesUsed++
	}
}
