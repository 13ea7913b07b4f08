package core

import (
	"cmp"
	"fmt"
	"slices"

	"adsm/internal/vc"
)

// Intervals and write notices live in per-node logs. Each node keeps one
// log per writer: the writer's intervals this node knows, contiguous in
// timestamp from the log's base up to knownTS[writer]. A row holds the
// interval's timestamp, the offset of its vector clock in the log's
// vector-clock slab and the range of its notice rows; a notice row holds
// the page, the owner flag and the page version. Nothing in a log is a
// pointer, so a node's metadata costs the garbage collector nothing to
// scan and the three slabs grow by amortized appends, not by four objects
// per interval.
//
// Pages name notices by wnRef, (writer, ts, index), resolved against the
// node's own log. Messages carry intervals as an ivBatch of the same rows,
// which the receiver copies into its logs above knownTS; no interval is
// shared between nodes, on the simulator either. Garbage collection and
// HLRC's barrier truncation cut log prefixes, never past the oldest row a
// page still names (cutLogs).

// wnRow is one write notice: the page written, and for an owner write
// notice (single-writer protocol) the page's version number. A non-owner
// write notice identifies a diff. ver is the version plus one for an owner
// notice and 0 for a non-owner one, so a row is two words.
type wnRow struct {
	page, ver int32
}

// ownerRow is the owner write notice of page pg at version v.
func ownerRow(pg int, v int32) wnRow { return wnRow{page: int32(pg), ver: v + 1} }

func (r wnRow) owner() bool { return r.ver > 0 }

// version is an owner notice's version number (0 for a non-owner one).
func (r wnRow) version() int32 { return max(r.ver-1, 0) }

// ivRow is one interval of a writer's log: its timestamp (the writer's
// interval index, == its vector clock's own entry), the offset of its
// vector clock in the log's vcs slab, and its notices wns[wn : wn+nwn].
type ivRow struct {
	ts, vc, wn, nwn int32
}

// writerLog is one writer's intervals known to this node: rows[i] has
// timestamp base+i, and the last row is knownTS[writer]. The node's own
// log may hold one more row while closeInterval runs the policies' close
// hooks, before the interval is published.
type writerLog struct {
	base int32
	rows []ivRow
	vcs  []int32
	wns  []wnRow
}

// wnRef names one write notice in the node's logs: the writer, the
// interval's timestamp and the notice's index among the interval's
// notices. The zero ref names none (timestamps start at 1).
type wnRef struct{ proc, ts, idx int32 }

func (r wnRef) ok() bool { return r.ts > 0 }

// key is the diff-cache key of a non-owner notice on page pg.
func (r wnRef) key(pg int) wnKey { return wnKey{page: pg, proc: int(r.proc), ts: r.ts} }

// wnKey identifies a write notice's diff in per-node diff caches.
type wnKey struct {
	page int
	proc int
	ts   int32
}

// notice is a write notice resolved from the node's logs. vc is a view of
// the log's slab: it is read-only and valid until the next cut (a barrier).
type notice struct {
	wnRow
	proc, ts int32
	vc       vc.VC
}

// wn resolves a ref. A ref into a cut prefix, or past a log's end, panics
// on the index.
func (n *Node) wn(r wnRef) notice {
	lg := &n.logs[r.proc]
	row := lg.rows[r.ts-lg.base]
	if r.idx >= row.nwn {
		panic(fmt.Sprintf("dsm: node %d write notice %+v outside its interval (%d notices)", n.id, r, row.nwn))
	}
	return notice{wnRow: lg.wns[row.wn+r.idx], proc: r.proc, ts: r.ts, vc: lg.vc(row, n.c.params.Procs)}
}

// ivc returns the vector clock of the interval a ref names.
func (n *Node) ivc(r wnRef) vc.VC {
	lg := &n.logs[r.proc]
	return lg.vc(lg.rows[r.ts-lg.base], n.c.params.Procs)
}

func (lg *writerLog) vc(row ivRow, procs int) vc.VC {
	return vc.VC(lg.vcs[row.vc : int(row.vc)+procs : int(row.vc)+procs])
}

// end is the timestamp of the log's last row (base-1 when it is empty).
func (lg *writerLog) end() int32 { return lg.base + int32(len(lg.rows)) - 1 }

// push appends one interval: its vector clock and notices are copied in.
func (lg *writerLog) push(ts int32, ivc []int32, wns []wnRow) {
	if ts != lg.end()+1 {
		panic(fmt.Sprintf("dsm: interval %d appended to a log ending at %d", ts, lg.end()))
	}
	lg.grow(1, len(ivc), len(wns))
	lg.rows = append(lg.rows, ivRow{ts: ts, vc: int32(len(lg.vcs)), wn: int32(len(lg.wns)), nwn: int32(len(wns))})
	lg.vcs = append(lg.vcs, ivc...)
	lg.wns = append(lg.wns, wns...)
}

// logMinRows is how many intervals a log's slabs first make room for: a
// log that grows from nothing by doubling spends its first few
// allocations on one or two rows each. Past that, append's own growth
// (down to a quarter once a slab is large) keeps the slack of a long
// serving run's logs small.
const logMinRows = 16

// grow makes room in an empty log for rows intervals with vcs clock
// entries and wns notices, and for logMinRows such intervals at least.
func (lg *writerLog) grow(rows, vcs, wns int) {
	if cap(lg.rows) == 0 {
		lg.rows = make([]ivRow, 0, max(rows, logMinRows))
		lg.vcs = make([]int32, 0, max(vcs, logMinRows*vcs/max(rows, 1)))
		lg.wns = make([]wnRow, 0, max(wns, logMinRows))
	}
}

// cut drops the rows at or below ts. The rest moves down in place, so the
// slabs keep their capacity for the intervals to come, unless what is
// left would use less than a quarter of it: then the slabs go, and the
// rest moves to new ones, so a log does not hold its largest epoch's
// memory for the whole run.
func (lg *writerLog) cut(ts int32) {
	k := int(min(max(ts-lg.base+1, 0), int32(len(lg.rows))))
	if k == 0 {
		return
	}
	lg.base += int32(k)
	rows, vcs, wns := lg.rows[:0], lg.vcs[:0], lg.wns[:0]
	if left := len(lg.rows) - k; left*4 < cap(lg.rows) && cap(lg.rows) > 2*logMinRows {
		rows, vcs, wns = nil, nil, nil
		if left > 0 {
			rows = make([]ivRow, 0, max(2*left, logMinRows))
			vcs = make([]int32, 0, cap(rows)*(len(lg.vcs)/len(lg.rows)))
			wns = make([]wnRow, 0, max(2*(len(lg.wns)-int(lg.rows[k].wn)), logMinRows))
		}
	}
	if k < len(lg.rows) {
		v0, w0 := lg.rows[k].vc, lg.rows[k].wn
		rows = append(rows, lg.rows[k:]...)
		vcs = append(vcs, lg.vcs[v0:]...)
		wns = append(wns, lg.wns[w0:]...)
		for i := range rows {
			rows[i].vc -= v0
			rows[i].wn -= w0
		}
	}
	lg.rows, lg.vcs, lg.wns = rows, vcs, wns
}

// since returns the index range of the rows above known, up to upto.
func (lg *writerLog) since(known, upto int32) (lo, hi int) {
	lo = int(max(known-lg.base+1, 0))
	hi = int(min(upto-lg.base+1, int32(len(lg.rows))))
	return lo, max(hi, lo)
}

// ivBatch carries intervals in a message: one head per interval in
// (writer, ts) order, their vector clocks back to back in VCs (each
// len(VCs)/len(Heads) entries), and their notices back to back in WNs.
// A batch is built fresh for each message and only read after.
type ivBatch struct {
	Heads []ivHead
	VCs   []int32
	WNs   []wnRow
}

// ivHead is one interval of a batch: its writer, timestamp and number of
// notices.
type ivHead struct{ proc, ts, nwn int32 }

// stride is the length of each vector clock in the batch.
func (b *ivBatch) stride() int {
	if len(b.Heads) == 0 {
		return 0
	}
	return len(b.VCs) / len(b.Heads)
}

// Encoded sizes for traffic accounting, audited against the actual wire
// encoding (TestMsgSizeMatchesWire): varint-coded interval metadata costs
// ~2 bytes per vector-clock entry and ~8 per write notice, not the packed
// 4-byte/24-byte C structs the model originally charged.
const (
	wnWireBytes       = 8  // page, flags, version
	intervalWireBytes = 12 // proc, ts + length headers
	vcEntryWireBytes  = 2  // varint-coded interval counter
)

func intervalsWireSize(b ivBatch, nprocs int) int {
	return len(b.Heads)*(intervalWireBytes+vcEntryWireBytes*nprocs) + wnWireBytes*len(b.WNs)
}

// closeInterval ends the node's current interval if it wrote anything,
// creating write notices for every dirty page. It is called at every
// release-class event: lock release/grant, barrier arrival, and lock
// acquire (program-order edge).
func (n *Node) closeInterval() {
	if len(n.dirty) == 0 {
		return
	}
	ts := n.vclock[n.id] + 1
	wns := n.wnScratch[:0]
	ivc := n.ivcScratch
	copy(ivc, n.vclock)
	ivc[n.id] = ts
	for _, pg := range n.dirty {
		ps := n.pages[pg]
		ref := wnRef{proc: int32(n.id), ts: ts, idx: int32(len(wns))}
		switch {
		case ps.wroteSW:
			// Owner write notice: carries the version number. The page
			// stays writable (the owner needs no write detection beyond
			// the wroteSW flag).
			wns = append(wns, ownerRow(pg, ps.version))
			ps.wroteSW = false
		case ps.dirtyMW:
			// Non-owner write notice: the twin is kept and the diff is
			// created lazily on first request (TreadMarks).
			wns = append(wns, wnRow{page: int32(pg)})
			ps.undiffed = ref
			ps.dirtyMW = false
			ps.protect() // the next interval's writes fault again
		default:
			continue
		}
		ps.myLastWN = ref
		ps.knownWNs = append(ps.knownWNs, ref)
		ps.applied.Join(ivc)
		n.wroteSinceGC[pg] = true
		if n.ckptDirty != nil {
			n.ckptDirty[pg] = true
		}

		// Ownership refusal aftermath: the refused owner keeps ownership
		// until this release, then emits the owner write notice above,
		// drops ownership and puts the page in MW mode (paper 3.1.1).
		if ps.dropOwnership {
			n.dropOwner(pg, ps)
		}
	}
	n.dirty = n.dirty[:0]
	n.wnScratch = wns

	if len(wns) == 0 {
		return
	}
	// The interval joins the log now, so the pages' refs resolve from
	// here on. Release-time policy work (e.g. HLRC's eager diff flush)
	// runs BEFORE the interval is published by knownTS: while the policy
	// blocks on its RPCs, this node can serve lock grants in handler
	// context, and a grant must not piggyback write notices whose diffs
	// have not reached their homes yet. A grant served during the flush
	// only needs intervals up to its release snapshot, and intervalsSince
	// stops at knownTS, so it withholds this one.
	n.logs[n.id].push(ts, ivc, wns)
	n.dispatchIntervalClose(ts)
	n.vclock[n.id] = ts
	n.knownTS[n.id] = ts
	if checkPageStates {
		n.checkLog(n.id)
	}
}

// dispatchIntervalClose calls the close hook of every policy governing a
// page the interval ts wrote, once each, in the order of the pages'
// notices; each policy acts on its own pages' notices only.
func (n *Node) dispatchIntervalClose(ts int32) {
	lg := &n.logs[n.id]
	row := lg.rows[ts-lg.base]
	var seen uint64 // protocol ids are small
	for i := row.wn; i < row.wn+row.nwn; i++ {
		ps := n.pages[lg.wns[i].page]
		if bit := uint64(1) << uint(ps.proto); seen&bit == 0 {
			seen |= bit
			ps.policy.OnIntervalClose(n, ps.proto, ts)
		}
	}
}

// intervalsSince collects every interval this node knows with TS newer than
// the given knowledge vector, in deterministic (proc, ts) order. These are
// piggybacked on lock grants and barrier traffic, so the cost must be the
// intervals the receiver lacks, not the history: each log is contiguous in
// TS, so the missing ones are a tail found by subtraction, and the batch
// is sized before it is filled.
func (n *Node) intervalsSince(known []int32) ivBatch {
	procs := n.c.params.Procs
	var heads, wns int
	for p := range n.logs {
		lg := &n.logs[p]
		if lo, hi := lg.since(known[p], n.knownTS[p]); hi > lo {
			heads += hi - lo
			wns += int(lg.rows[hi-1].wn + lg.rows[hi-1].nwn - lg.rows[lo].wn)
		}
	}
	if heads == 0 {
		return ivBatch{}
	}
	b := ivBatch{
		Heads: make([]ivHead, 0, heads),
		VCs:   make([]int32, 0, heads*procs),
		WNs:   make([]wnRow, 0, wns),
	}
	for p := range n.logs {
		lg := &n.logs[p]
		lo, hi := lg.since(known[p], n.knownTS[p])
		if hi == lo {
			continue
		}
		for _, r := range lg.rows[lo:hi] {
			b.Heads = append(b.Heads, ivHead{proc: int32(p), ts: r.ts, nwn: r.nwn})
		}
		first, last := lg.rows[lo], lg.rows[hi-1]
		b.VCs = append(b.VCs, lg.vcs[first.vc:int(last.vc)+procs]...)
		b.WNs = append(b.WNs, lg.wns[first.wn:last.wn+last.nwn]...)
	}
	return b
}

// ingestIntervals merges received intervals into the node's knowledge,
// copying the ones above knownTS into its logs and invalidating pages
// named by their write notices and updating adaptation state
// (false-sharing perception, owner write notices, mechanism 2 of Section
// 3.1.2). Runs in process context, and on the barrier manager in handler
// context (serveBarrier).
func (n *Node) ingestIntervals(b ivBatch) {
	stride := b.stride()
	w := 0
	for i, h := range b.Heads {
		wns := b.WNs[w : w+int(h.nwn)]
		w += int(h.nwn)
		p := int(h.proc)
		if p == n.id || h.ts <= n.knownTS[p] {
			continue
		}
		ivc := b.VCs[i*stride : (i+1)*stride]
		lg := &n.logs[p]
		if checkPageStates {
			n.checkIngest(p, ivc)
		}
		lg.push(h.ts, ivc, wns)
		n.knownTS[p] = h.ts
		for j := range wns {
			n.ingestWN(wnRef{proc: h.proc, ts: h.ts, idx: int32(j)})
		}
	}
}

// ingestWN processes one incoming write notice.
func (n *Node) ingestWN(r wnRef) {
	wn := n.wn(r)
	pg := int(wn.page)
	ps := n.pages[pg]
	if n.ckptDirty != nil {
		// Checkpoint dirty tracking wants every page any node wrote since
		// our last checkpoint, even notices our copy already subsumes.
		n.ckptDirty[pg] = true
	}
	// The notice is concurrent with this node's own last write of the
	// page: write-write false sharing. Table 2's bit is set even when the
	// copy already reflects the notice. (myLastWN is always this node's,
	// and an ingested notice never is.)
	concurrent := ps.myLastWN.ok() && n.ivc(ps.myLastWN).Concurrent(wn.vc)
	ps.fs = ps.fs || concurrent
	if wn.vc.Leq(ps.applied) {
		// Already reflected in our copy (e.g. we fetched a newer page).
		n.noteOwnerWN(ps, wn)
		if !wn.owner() {
			ps.knownWNs = append(ps.knownWNs, r)
		}
		return
	}

	// Update the local write-write false-sharing perception: the new
	// notice is concurrent with another processor's write we know about.
	for _, old := range ps.pending {
		if old.proc != r.proc && n.ivc(old).Concurrent(wn.vc) {
			ps.seesFS = true
		}
	}
	if concurrent {
		ps.seesFS = true
	}

	n.noteOwnerWN(ps, wn)
	ps.knownWNs = append(ps.knownWNs, r)
	ps.pending = append(ps.pending, r)
	ps.status = pageInvalid
}

// noteOwnerWN records owner write notices: routing state (perceived owner
// and version) and mechanism 2 — a new owner write notice with no
// concurrent secondary write notices means false sharing has stopped.
func (n *Node) noteOwnerWN(ps *pageState, wn notice) {
	if !wn.owner() {
		return
	}
	n.learnOwner(ps, wn)
	// Mechanism 2 of Section 3.1.2 lives in the adaptive policies.
	ps.policy.OnOwnerNotice(n, ps, wn)
}

// orderWNs returns the write notices in an order consistent with
// happened-before-1 (a topological sort of the interval partial order),
// breaking ties between concurrent intervals deterministically by
// (proc, ts). Diffs must be applied in this order.
func (n *Node) orderWNs(wns []wnRef) []wnRef {
	rem := slices.Clone(wns)
	slices.SortStableFunc(rem, func(a, b wnRef) int {
		return cmp.Or(cmp.Compare(a.proc, b.proc), cmp.Compare(a.ts, b.ts))
	})
	out := make([]wnRef, 0, len(rem))
	for len(rem) > 0 {
		// The first minimal notice (no remaining one precedes it).
		i := slices.IndexFunc(rem, func(w wnRef) bool {
			wv := n.ivc(w)
			return !slices.ContainsFunc(rem, func(o wnRef) bool { return n.ivc(o).Before(wv) })
		})
		out = append(out, rem[i])
		rem = slices.Delete(rem, i, i+1)
	}
	return out
}

// cutLogs drops every log's rows at or below limit, except that a log is
// never cut past the oldest row a page still names: a page's pending and
// known notices, its undiffed interval and its last own write. Garbage
// collection cuts at knownTS once it has forgotten the collected pages'
// notices; HLRC's barrier release cuts at the global knowledge vector
// (intervalsSince never ships a row at or below it again). Process
// context, at a barrier.
func (n *Node) cutLogs(limit []int32) {
	upto := n.cutScratch
	copy(upto, limit)
	hold := func(r wnRef) {
		if r.ok() && r.ts <= upto[r.proc] {
			upto[r.proc] = r.ts - 1
		}
	}
	for _, ps := range n.pages {
		for _, r := range ps.pending {
			hold(r)
		}
		for _, r := range ps.knownWNs {
			hold(r)
		}
		hold(ps.undiffed)
		hold(ps.myLastWN)
	}
	for p := range n.logs {
		n.logs[p].cut(upto[p])
	}
	if checkPageStates {
		n.checkRefs()
	}
}

// KnownIntervals reports how many intervals this node has closed or
// ingested since the run began: the sum of its knowledge vector.
func (n *Node) KnownIntervals() int {
	k := 0
	for _, t := range n.knownTS {
		k += int(t)
	}
	return k
}

// --- invariants (checked builds) ---

// checkLog panics unless writer p's log is contiguous from its base and
// ends at knownTS[p]: the invariant every lookup by timestamp rests on.
func (n *Node) checkLog(p int) {
	lg := &n.logs[p]
	if lg.end() != n.knownTS[p] {
		panic(fmt.Sprintf("dsm: node %d log of %d ends at %d, knownTS %d", n.id, p, lg.end(), n.knownTS[p]))
	}
	if len(lg.rows) > 0 && lg.rows[len(lg.rows)-1].ts != lg.end() {
		panic(fmt.Sprintf("dsm: node %d log of %d is not contiguous from %d", n.id, p, lg.base))
	}
}

// checkIngest panics unless an interval of writer p arriving with vector
// clock ivc extends p's log: its timestamp is the next one, so knownTS
// never goes down and no interval is skipped, and its clock dominates the
// writer's previous interval's.
func (n *Node) checkIngest(p int, ivc vc.VC) {
	n.checkLog(p)
	lg := &n.logs[p]
	if ivc[p] != n.knownTS[p]+1 {
		panic(fmt.Sprintf("dsm: node %d ingests interval %d of %d after %d", n.id, ivc[p], p, n.knownTS[p]))
	}
	if len(lg.rows) > 0 {
		if prev := lg.vc(lg.rows[len(lg.rows)-1], n.c.params.Procs); !prev.Leq(ivc) {
			panic(fmt.Sprintf("dsm: node %d ingests interval %v of %d not after %v", n.id, ivc, p, prev))
		}
	}
}

// checkRefs panics unless every ref a page holds resolves in the node's
// logs to a notice of that page.
func (n *Node) checkRefs() {
	for p := range n.logs {
		n.checkLog(p)
	}
	for pg, ps := range n.pages {
		check := func(r wnRef, what string) {
			if !r.ok() {
				return
			}
			lg := &n.logs[r.proc]
			if r.ts < lg.base || r.ts > lg.end() {
				panic(fmt.Sprintf("dsm: node %d page %d holds %s %+v outside the log [%d,%d]", n.id, pg, what, r, lg.base, lg.end()))
			}
			if wn := n.wn(r); int(wn.page) != pg {
				panic(fmt.Sprintf("dsm: node %d page %d holds %s %+v naming page %d", n.id, pg, what, r, wn.page))
			}
		}
		for _, r := range ps.pending {
			check(r, "pending notice")
		}
		for _, r := range ps.knownWNs {
			check(r, "known notice")
		}
		check(ps.undiffed, "undiffed interval")
		check(ps.myLastWN, "last write")
	}
}
