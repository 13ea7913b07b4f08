package core

// Reclamation between barriers. Lazy release consistency reclaims diffs
// only at barrier-time garbage collection (gc.go), so a program that
// synchronizes by locks alone — a serving loop — caches every diff it
// ever fetched or had pushed. A foreign diff (one this node did not write)
// serves two uses here: the local fault that applies it, and the lock
// grants that push it on (push.go). Diff requests go only to a diff's
// writer, so no other node ever asks this one for it.
//
// Each lock request carries the requester's knowledge vector: the manager
// sees it on the acqReq, the token holder on the acqFwd, a reader on the
// acqRevoke. The node keeps, per peer, the highest vector that peer sent
// (knowledge only grows, so each is a lower bound on what the peer knows
// now). The frontier F[q] is the minimum over this node and every peer of
// what is known of writer q. A grant ships only intervals above the
// requester's knowledge, which is at least F, so a foreign diff of
// interval (q, t) with t <= F[q] can never ride a grant again; once its
// write notice is no longer pending on the local copy, the cache entry is
// dead weight and is evicted. A fault that needs it later (installPage
// replaying a write an incoming copy misses) fetches it from its writer,
// which keeps its own diffs until garbage collection.
//
// The node's own diffs, interval records and write notices stay: a
// knowledge frontier says nothing about which copies already reflect a
// write. Garbage collection takes no input from the frontier, and a
// program that synchronizes by barriers alone sends no lock requests and
// evicts nothing.

// noteKnown records the knowledge vector peer p sent on a lock request.
// Handler context.
func (n *Node) noteKnown(p int, know []int32) {
	if p == n.id {
		return
	}
	pk := n.peerKnown[p]
	for q, t := range know {
		pk[q] = max(pk[q], t)
	}
}

// frontier returns F[q]: the highest TS of writer q that this node and
// every peer are known to know.
func (n *Node) frontier(q int) int32 {
	f := n.knownTS[q]
	for p, pk := range n.peerKnown {
		if p != n.id && pk[q] < f {
			f = pk[q]
		}
	}
	return f
}

// noteForeign queues a stored foreign diff for eviction.
func (n *Node) noteForeign(k wnKey) {
	if n.foreign == nil {
		n.foreign = make([][]wnKey, n.c.params.Procs)
	}
	n.foreign[k.proc] = append(n.foreign[k.proc], k)
	n.queued++
}

// evictKnownDiffs drops the cached foreign diffs at or below the frontier
// whose write notices are not pending on the local copy. Each writer's
// queue is walked oldest first (in the order the diffs were stored) up to
// the first key above the frontier; keys still pending stay queued.
//
// A pass runs in process context outside any fault, so no diff fetched
// for a merge can go between fetchDiffs and applyDiffs; the lock release
// paths call it once their grants are out. It runs once an eighth more
// diffs are queued than the last pass left behind: pushes for pages this
// node does not touch again stay pending, and rescanning them on every
// release would cost more than the eviction saves.
func (n *Node) evictKnownDiffs() {
	if n.queued < n.evictAt {
		return
	}
	n.queued = 0
	for q, keys := range n.foreign {
		f := n.frontier(q)
		kept := keys[:0]
		i := 0
		for ; i < len(keys) && keys[i].ts <= f; i++ {
			k := keys[i]
			// A notice the copy reflects (the applied vector covers its
			// interval) is not pending; the scan of the pending list
			// only confirms it.
			if ps := n.pages[k.page]; ps.applied[k.proc] < k.ts || pendingHas(ps, k) {
				kept = append(kept, k)
				continue
			}
			n.dropDiff(k)
			// A push no fault applied (a whole-page fetch superseded it)
			// is never used now.
			delete(n.pushed, k)
			n.Stats.DiffsEvicted++
		}
		n.foreign[q] = append(kept, keys[i:]...)
		n.queued += len(n.foreign[q])
	}
	n.evictAt = n.queued + n.queued/8
}

// ForeignDiffs reports how many diffs written by other nodes this node
// caches: every one of them is queued for eviction.
func (n *Node) ForeignDiffs() int { return n.queued }
