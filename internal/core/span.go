package core

import (
	"fmt"

	"adsm/internal/mem"
)

// The bulk entry point of the engine. A per-element accessor pays a full
// fault check plus a sharing-fact check per word (node.go: access);
// AccessRange resolves the same protocol state once per page and then
// exposes the page bytes directly, so a span over k words on one page
// costs one check instead of k. The per-page bookkeeping (readFault on an
// invalid page, writeFault on a non-writable one, markWritten, the page's
// sharing facts) is exactly what the per-element path runs, and all of it is
// idempotent at page granularity within an interval — which is why the
// bulk path changes cost, never semantics. The test-only reference engine
// Params.PerWordSpans pins that claim: it degrades every AccessRange back
// to per-element checks, and the equivalence tests assert both executions
// produce identical checksums and identical protocol counters.

// AccessRange resolves the coherence state of the byte range
// [addr, addr+size), which may cross any number of page boundaries, and
// hands each in-page chunk to fn as a mutable sub-slice of the live local
// page copy. rel is the byte offset of the chunk within the range. The
// slice is valid only for the duration of the callback: the next fault on
// the page may replace the backing array. A write chunk is the page's
// private frame; should fn block (a fault on another page), a peer served
// the page meanwhile gets a copy of it.
//
// read and write select the fault semantics, mirroring what a per-element
// loop over the range would trigger:
//
//   - read: an invalid page takes a read fault (validate + fetch) before
//     the callback sees it.
//   - write: a non-writable page takes a write fault (ownership request,
//     twin creation, ... — per the cluster's protocol) and is recorded for
//     write-notice generation; the callback may then mutate the bytes.
//   - read|write: the read fault is taken before the write fault, the
//     order a read-modify-write loop produces.
//
// step is the element size (4 or 8); it must divide addr and size so
// elements are naturally aligned and never straddle pages. It only matters
// to the per-word degrade path, which checks each element individually.
func (n *Node) AccessRange(addr, size, step int, read, write bool, fn func(rel int, b []byte)) {
	if size == 0 {
		return
	}
	if addr < 0 || size < 0 || addr+size > n.c.allocated {
		panic(fmt.Sprintf("dsm: access [%d,%d) outside shared segment (%d allocated)", addr, addr+size, n.c.allocated))
	}
	if !read && !write {
		panic("dsm: AccessRange needs a read or write mode")
	}
	if step != 4 && step != 8 {
		panic(fmt.Sprintf("dsm: AccessRange element size %d (want 4 or 8)", step))
	}
	if addr%step != 0 || size%step != 0 {
		panic(fmt.Sprintf("dsm: AccessRange [%d,%d) not aligned to %d-byte elements", addr, addr+size, step))
	}
	perWord := n.c.params.PerWordSpans
	if read && !perWord && n.c.params.SpanPrefetch {
		// Plan-then-fetch: batch the span's page fetches into one
		// overlapped Multicall (prefetch.go) before the per-page loop
		// services whatever is left serially.
		n.spanPrefetch(addr, size)
	}
	for off := addr; off < addr+size; {
		pg := off >> mem.PageShift
		end := (pg + 1) << mem.PageShift
		if end > addr+size {
			end = addr + size
		}
		if perWord {
			n.perWordChunk(off, end-off, step, read, write)
		} else {
			ps := n.pages[pg]
			if read && ps.status == pageInvalid {
				n.readFault(pg)
			}
			if write {
				if ps.status != pageReadWrite {
					n.writeFault(pg)
				}
				n.markWritten(pg, ps)
				n.ownData(ps)
			}
		}
		// Re-read the page state: fault handling may have replaced the
		// frame (installPage adopts the fetched one, a store copies a
		// shared one).
		pgOff := off & (mem.PageSize - 1)
		ps := n.pages[pg]
		ps.spanWrite = write
		fn(off-addr, ps.data[pgOff:pgOff+(end-off)])
		ps.spanWrite = false
		off = end
	}
}

// perWordChunk runs the protocol checks of the degraded path: one access
// per element and mode component. Everything runs BEFORE the callback,
// because a per-word loop's first write access faults (and twins) the page
// while its bytes are still pristine; letting the callback mutate the live
// page first would bake the new values into the twin and silently empty
// the diff. After the first faulting access the page is valid, so the
// remaining checks are pure local bookkeeping and their order relative to
// the byte mutations is protocol-invisible — which is exactly why the
// per-page fast path can batch them.
func (n *Node) perWordChunk(off, clen, step int, read, write bool) {
	if read {
		for o := off; o < off+clen; o += step {
			n.access(o, step, false)
		}
	}
	if write {
		for o := off; o < off+clen; o += step {
			n.access(o, step, true)
		}
	}
}
