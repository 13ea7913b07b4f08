package core

import (
	"fmt"
	"slices"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// Span-granularity prefetch: instead of servicing a span's invalid pages
// one blocking fault at a time (k pages = k sequential round trips),
// AccessRange first plans the whole span's coherence work — which pages
// need a copy from which node, which need diffs from which writers — and
// issues it as one batched spanFetchReq per destination in a single
// overlapped Multicall. Pages are then installed and settled in order
// with the exact per-page semantics of the serial path (installPage,
// happened-before diff application, the MakeValid settle loop for
// notices that raced the batch). Any page whose plan cannot be built, or
// whose target reports no copy (an ownership transfer in flight — the
// case servePage answers by forwarding), falls back to the serial fault
// path, which chases the owner chain as usual. The test-only reference
// engine Params.SpanPrefetch=false turns the whole mechanism off,
// restoring the serial engine byte for byte.

// PrefetchRange is the read-intent hint behind the public Prefetch API:
// it batches the range's invalid pages exactly like a read span's
// prefetch pass, without touching any bytes. Under the serial and
// per-word reference engines it is a no-op — the hint never changes what
// a program computes, and declining it restores the unhinted engine byte
// for byte, which is what lets kernels declare intent unconditionally.
func (n *Node) PrefetchRange(addr, size int) {
	if size == 0 {
		return
	}
	if addr < 0 || size < 0 || addr+size > n.c.allocated {
		panic(fmt.Sprintf("dsm: prefetch [%d,%d) outside shared segment (%d allocated)", addr, addr+size, n.c.allocated))
	}
	if n.c.params.PerWordSpans || !n.c.params.SpanPrefetch {
		return
	}
	n.spanPrefetch(addr, size, true)
}

// Range is one byte range of a multi-range prefetch hint.
type Range struct {
	Addr, Size int
}

// PrefetchRanges is the multi-range form of PrefetchRange: one hint
// covering several disjoint ranges (e.g. the boundary rows of different
// grids a stencil phase is about to read) batches all their invalid pages
// into a single planned Multicall, where per-range hints would issue one
// batch — or, for single-page ranges, no batch at all — per range. The
// ranges may overlap or touch the same page; pages are deduplicated. Like
// the single-range hint it is read-intent, never changes what a program
// computes, and is a no-op when batching cannot win.
func (n *Node) PrefetchRanges(ranges []Range) {
	var pages []int
	for _, r := range ranges {
		if r.Size == 0 {
			continue
		}
		if r.Addr < 0 || r.Size < 0 || r.Addr+r.Size > n.c.allocated {
			panic(fmt.Sprintf("dsm: prefetch [%d,%d) outside shared segment (%d allocated)",
				r.Addr, r.Addr+r.Size, n.c.allocated))
		}
		first := r.Addr >> mem.PageShift
		last := (r.Addr + r.Size - 1) >> mem.PageShift
		for pg := first; pg <= last; pg++ {
			pages = append(pages, pg)
		}
	}
	if n.c.params.PerWordSpans || !n.c.params.SpanPrefetch || len(pages) == 0 {
		return
	}
	slices.Sort(pages)
	n.prefetchPages(slices.Compact(pages), true)
}

// spanPlan is one page's share of a batched span fetch.
type spanPlan struct {
	pg     int
	ps     *pageState
	target int            // whole-page fetch target, -1 = local copy suffices
	diffs  []*WriteNotice // diff-backed notices to fetch and apply
}

// spanPrefetch batches the coherence work of the span [addr, addr+size)
// before the per-page execution loop runs. Process context.
func (n *Node) spanPrefetch(addr, size int, read bool) {
	first := addr >> mem.PageShift
	last := (addr + size - 1) >> mem.PageShift
	if first == last {
		return // single-page spans keep the serial path
	}
	pages := make([]int, 0, last-first+1)
	for pg := first; pg <= last; pg++ {
		pages = append(pages, pg)
	}
	n.prefetchPages(pages, read)
}

// prefetchPages batches the coherence work of a sorted, deduplicated page
// list. Read batches form under every protocol; write-only batches only
// where the protocol's write fault validates without an ownership grant.
// Process context.
func (n *Node) prefetchPages(pages []int, read bool) {
	if !read {
		// Write spans under the direct-request ownership protocols: group
		// the span's ownership requests per perceived owner first, so the
		// per-page loop finds the granted pages already writable.
		n.batchOwnership(pages)
	}
	var plans []spanPlan
	declined := 0
	rounds := 0 // blocking rounds the serial path would take for this work
	for _, pg := range pages {
		ps := n.pages[pg]
		// Write batching is per page: a page whose protocol does not
		// batch writes keeps the serial fault path (not a fallback — the
		// page was never planned).
		if !read && !ps.policy.PrefetchWriteSpans() {
			continue
		}
		if ps.status != pageInvalid || ps.owner {
			// Owned-but-invalid pages (a GC collapse) take the owner
			// fast path of writeFault; valid pages need nothing.
			continue
		}
		target, diffs, ok := ps.policy.SpanFetchPlan(n, pg, ps)
		if !ok {
			// The per-page loop services this page serially.
			declined++
			continue
		}
		if target >= 0 {
			rounds++
		}
		for _, wn := range diffs {
			if n.diffCache[keyOf(wn)] == nil {
				rounds++
				break
			}
		}
		plans = append(plans, spanPlan{pg: pg, ps: ps, target: target, diffs: diffs})
	}
	if rounds < 2 {
		// One blocking round (or none): the serial path is already
		// optimal, so skip the batch — the per-page loop services
		// whatever is left with today's faults, and the off/on engines
		// stay identical where batching cannot win.
		return
	}
	n.Stats.SerialFallbacks += int64(declined)
	if read {
		for _, pl := range plans {
			// The batch services these read misses; account them exactly
			// like readFault (the loop will find the pages valid).
			n.Stats.ReadFaults++
			n.c.detector.noteAccess(pl.pg, n.id, false)
		}
	}

	// Group the span's fetches per destination node, in deterministic
	// node order (the fetchDiffs discipline).
	reqs := make(map[int]*spanFetchReq)
	get := func(to int) *spanFetchReq {
		r := reqs[to]
		if r == nil {
			r = &spanFetchReq{}
			reqs[to] = r
		}
		return r
	}
	wnIndex := make(map[wnKey]*WriteNotice)
	for _, pl := range plans {
		if pl.target >= 0 {
			get(pl.target).Pages = append(get(pl.target).Pages, pl.pg)
		}
		var perWriter map[int][]wnKey
		for _, wn := range pl.diffs {
			k := keyOf(wn)
			wnIndex[k] = wn
			if n.diffCache[k] != nil {
				continue
			}
			if wn.Int.Proc == n.id {
				panic("dsm: own write notice pending")
			}
			if perWriter == nil {
				perWriter = make(map[int][]wnKey)
			}
			perWriter[wn.Int.Proc] = append(perWriter[wn.Int.Proc], k)
		}
		for p := 0; p < n.c.params.Procs; p++ {
			if ks, ok := perWriter[p]; ok {
				get(p).Diffs = append(get(p).Diffs, spanDiffWant{Page: pl.pg, Wants: ks, SeesFS: pl.ps.seesFS})
			}
		}
	}
	var targets []transport.Target
	for p := 0; p < n.c.params.Procs; p++ {
		if r, ok := reqs[p]; ok {
			targets = append(targets, transport.Target{To: p, M: *r})
		}
	}

	copies := make(map[int]*spanPageCopy)
	if len(targets) > 0 {
		n.Stats.BatchedFetches++
		resps := n.c.rt.Multicall(n.proc, targets)
		// Store every bundled diff before installing any page: a page's
		// install may replay diffs another destination returned.
		for _, r := range resps {
			sr := r.(spanFetchResp)
			for _, b := range sr.Diffs {
				for i, d := range b.Diffs {
					wn := wnIndex[b.Keys[i]]
					if wn == nil {
						panic("dsm: received span diff for unknown write notice")
					}
					n.storeDiff(wn, d, false)
				}
			}
			for i := range sr.Pages {
				pc := &sr.Pages[i]
				copies[pc.Page] = pc
			}
		}
	}

	// Install and settle in page order, preserving the serial path's
	// per-page semantics.
	for _, pl := range plans {
		if pl.target >= 0 {
			pc := copies[pl.pg]
			if pc == nil || !pc.Served {
				// The target dropped its copy while the batch was in
				// flight (ownership transition): serve the page through
				// the serial path, which forwards along the owner chain.
				n.Stats.SerialFallbacks++
				n.validate(pl.pg)
				continue
			}
			n.Stats.PageFetches++
			n.installPage(pl.pg, pl.ps, pc.Data, pc.Applied.Copy())
		}
		n.Stats.PrefetchPages++
		pl.ps.policy.SpanSettle(n, pl.pg, pl.ps)
	}
}

// batchOwnership groups a write span's ownership requests per perceived
// owner and issues each group of two or more as one ownBatchReq in a
// single overlapped Multicall (write-span grant batching). Each granted
// page goes through the same finishOwnership the serial path runs — the
// batch consumes that page's write fault, so its accounting mirrors the
// serial fault's. A refused page flips to MW and is left for the per-page
// loop's serial write fault, exactly like a serial refusal. Pages that
// need a merge first (pending diff-backed notices), groups of one, and
// pages under non-batching policies all keep the serial path untouched.
// Process context.
func (n *Node) batchOwnership(pages []int) {
	type ent struct {
		pg int
		ps *pageState
	}
	var groups map[int][]ent
	var reqs map[int][]ownReq
	for _, pg := range pages {
		ps := n.pages[pg]
		if !ps.policy.BatchOwnershipSpans() || ps.mode != modeSW || ps.owner ||
			ps.status == pageReadWrite {
			continue
		}
		if pendingDiffs(ps) {
			continue // must merge before requesting: serial path
		}
		target, req, ok := n.buildOwnReq(pg, ps)
		if !ok {
			continue
		}
		if groups == nil {
			groups = make(map[int][]ent)
			reqs = make(map[int][]ownReq)
		}
		groups[target] = append(groups[target], ent{pg: pg, ps: ps})
		reqs[target] = append(reqs[target], req)
	}
	var targets []transport.Target
	var ents [][]ent
	for p := 0; p < n.c.params.Procs; p++ {
		if es := groups[p]; len(es) >= 2 {
			targets = append(targets, transport.Target{To: p, M: ownBatchReq{Reqs: reqs[p]}})
			ents = append(ents, es)
		}
	}
	if len(targets) == 0 {
		return
	}
	resps := n.c.rt.Multicall(n.proc, targets)
	for i, r := range resps {
		br := r.(ownBatchResp)
		for j, resp := range br.Resps {
			e := ents[i][j]
			n.Stats.OwnershipRequests++
			n.Stats.BatchedOwnReqs++
			if n.finishOwnership(e.pg, e.ps, resp) {
				// Granted: the batch consumed this page's write fault.
				n.Stats.WriteFaults++
				n.c.detector.noteAccess(e.pg, n.id, false)
			} else {
				// Refused: write-write false sharing, as in the serial
				// path; the per-page loop's fault services the page in MW.
				n.setMode(e.ps, modeMW)
			}
		}
	}
}

// lrcSpanPlan builds the batched-fetch plan of one invalid page under the
// diff-based LRC protocols: the same fetch-target and diff decisions one
// mergeOnce round makes, without executing them.
func (n *Node) lrcSpanPlan(ps *pageState) (int, []*WriteNotice, bool) {
	target := n.mergeSource(ps)
	if target == n.id {
		if ps.data == nil {
			// The serial path panics loudly on this state; let it.
			return 0, nil, false
		}
		target = -1 // chain head with a current copy: nothing to fetch
	}
	var diffs []*WriteNotice
	for _, wn := range ps.pending {
		if wn.Int.VC.Leq(ps.applied) || wn.Owner {
			continue
		}
		diffs = append(diffs, wn)
	}
	return target, diffs, true
}

// lrcSpanSettle finishes a batched fetch for one LRC page: one merge
// partition over the pending notices — exactly what mergeOnce runs after
// its fetch — applying the bundled diffs in happened-before order, then
// the serial settle loop for anything that raced the batch.
func (n *Node) lrcSpanSettle(pg int, ps *pageState) {
	// An owner write notice can be ingested in handler context while the
	// batched Multicall is blocked (this node serving a barrier arrival,
	// the same reentrancy lrcMakeValid loops for). The plan never saw
	// it, and the partition below would silently discard it; when it
	// still demands a fetch, re-run the full serial merge loop instead —
	// exactly what another mergeOnce round does.
	if n.mergeSource(ps) >= 0 {
		n.validate(pg)
		return
	}
	var rest []*WriteNotice
	for _, wn := range ps.pending {
		if wn.Int.VC.Leq(ps.applied) || wn.Owner {
			continue
		}
		rest = append(rest, wn)
	}
	ps.pending = ps.pending[:0]
	if len(rest) > 0 {
		n.fetchDiffs(pg, ps, rest) // bundled diffs are cached; only raced stragglers travel
		n.applyDiffs(pg, ps, rest)
	}
	if len(ps.pending) > 0 {
		n.validate(pg)
	}
	if ps.status == pageInvalid && ps.data != nil {
		ps.status = pageReadOnly
	}
}

// serveSpanFetch answers a batched span fetch (handler context): snapshot
// copies of the requested pages it holds, the requested diff bundles
// (missing diffs created lazily, their cost charged as reply latency),
// and unserved markers for pages it has no copy of — the case servePage
// answers by forwarding, which a batched call cannot.
func (n *Node) serveSpanFetch(c transport.Call, from int, m spanFetchReq) {
	var cost transport.Time
	resp := spanFetchResp{}
	for _, pg := range m.Pages {
		ps := n.pages[pg]
		pc := spanPageCopy{Page: pg}
		if ps.data != nil {
			pc.Served = true
			pc.Data, pc.Applied = n.snapshotPage(from, pg, ps)
		}
		resp.Pages = append(resp.Pages, pc)
	}
	for _, dw := range m.Diffs {
		ps := n.pages[dw.Page]
		ps.policy.OnServeDiffs(n, from, ps, dw.SeesFS)
		b := spanDiffBundle{Page: dw.Page}
		for _, k := range dw.Wants {
			d, dc := n.serveDiffKey(dw.Page, ps, k)
			cost += dc
			b.Diffs = append(b.Diffs, d)
			b.Keys = append(b.Keys, k)
		}
		resp.Diffs = append(resp.Diffs, b)
	}
	c.ReplyAfter(cost, resp)
}
