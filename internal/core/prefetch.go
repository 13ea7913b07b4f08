package core

import (
	"fmt"
	"slices"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// Span-granularity prefetch: instead of servicing a read span's invalid
// pages one blocking fault at a time (k pages = k sequential round trips),
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
// restoring the serial engine byte for byte. Write faults stay one page
// at a time, as in the paper: an ownership request or a twin each.

// Range is one byte range of a prefetch hint.
type Range struct {
	Addr, Size int
}

// PrefetchRanges is the read-intent hint behind the public Prefetch API:
// it batches the invalid pages of several byte ranges (e.g. the boundary
// rows of different grids a stencil phase is about to read) exactly like a
// read span's prefetch pass, into a single planned Multicall, without
// touching any bytes. The ranges may overlap or touch the same page; pages
// are deduplicated. Under the serial and per-word reference engines it is
// a no-op: the hint never changes what a program computes, and declining
// it restores the unhinted engine byte for byte, which is what lets
// kernels declare intent unconditionally.
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
	n.prefetchPages(slices.Compact(pages))
}

// spanPlan is one page's share of a batched span fetch.
type spanPlan struct {
	pg     int
	ps     *pageState
	target int     // whole-page fetch target, -1 = local copy suffices
	diffs  []wnRef // diff-backed notices to fetch and apply
}

// spanPrefetch batches the coherence work of the read span
// [addr, addr+size) before the per-page execution loop runs. Process
// context.
func (n *Node) spanPrefetch(addr, size int) {
	first := addr >> mem.PageShift
	last := (addr + size - 1) >> mem.PageShift
	if first == last {
		return // single-page spans keep the serial path
	}
	pages := make([]int, 0, last-first+1)
	for pg := first; pg <= last; pg++ {
		pages = append(pages, pg)
	}
	n.prefetchPages(pages)
}

// prefetchPages batches the read misses of a sorted, deduplicated page
// list. Process context.
func (n *Node) prefetchPages(pages []int) {
	var plans []spanPlan
	declined := 0
	rounds := 0 // blocking rounds the serial path would take for this work
	for _, pg := range pages {
		ps := n.pages[pg]
		if ps.status != pageInvalid || ps.owner {
			// Owned-but-invalid pages (a GC collapse) keep the serial
			// fault path; valid pages need nothing.
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
		for _, r := range diffs {
			if n.diffCache[r.key(pg)] == nil {
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
	for _, pl := range plans {
		// The batch services these read misses; account them exactly like
		// readFault (the loop will find the pages valid).
		n.Stats.ReadFaults++
		n.noteAccess(pl.pg, pl.ps)
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
	wanted := make(map[wnKey]bool)
	for _, pl := range plans {
		if pl.target >= 0 {
			get(pl.target).Pages = append(get(pl.target).Pages, pl.pg)
		}
		var perWriter map[int][]wnKey
		for _, r := range pl.diffs {
			k := r.key(pl.pg)
			wanted[k] = true
			if n.diffCache[k] != nil {
				continue
			}
			if int(r.proc) == n.id {
				panic("dsm: own write notice pending")
			}
			if perWriter == nil {
				perWriter = make(map[int][]wnKey)
			}
			perWriter[k.proc] = append(perWriter[k.proc], k)
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
					if !wanted[b.Keys[i]] {
						panic("dsm: received span diff for unknown write notice")
					}
					n.storeDiff(b.Keys[i], d, false)
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
			n.installPage(pl.pg, pl.ps, pc.Data, pc.Applied)
		}
		n.Stats.PrefetchPages++
		pl.ps.policy.SpanSettle(n, pl.pg, pl.ps)
	}
}

// lrcSpanPlan builds the batched-fetch plan of one invalid page under the
// diff-based LRC protocols: the same fetch-target and diff decisions one
// mergeOnce round makes, without executing them.
func (n *Node) lrcSpanPlan(ps *pageState) (int, []wnRef, bool) {
	target := n.mergeSource(ps)
	if target == n.id {
		if ps.data == nil {
			// The serial path panics loudly on this state; let it.
			return 0, nil, false
		}
		target = -1 // chain head with a current copy: nothing to fetch
	}
	return target, n.pendingDiffRefs(ps), true
}

// pendingDiffRefs lists the pending diff-backed notices the page's copy
// does not reflect.
func (n *Node) pendingDiffRefs(ps *pageState) []wnRef {
	var diffs []wnRef
	for _, r := range ps.pending {
		if wn := n.wn(r); wn.vc.Leq(ps.applied) || wn.owner() {
			continue
		}
		diffs = append(diffs, r)
	}
	return diffs
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
	rest := n.pendingDiffRefs(ps)
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

// serveSpanFetch answers a batched span fetch (handler context): the
// frames of the requested pages it holds, the requested diff bundles
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
