package core

import (
	"testing"

	"adsm/internal/mem"
)

// TestSpanPrefetchDiffBundling: a read span over pages written by several
// concurrent writers must collect every page's diffs in one batched
// round — one spanFetchReq per writer, all writers overlapped in a
// single Multicall — and install results identical to the serial engine.
func TestSpanPrefetchDiffBundling(t *testing.T) {
	const (
		procs = 4
		pages = 2
		words = pages * 512
	)
	val := func(w, i int) uint64 { return uint64(w*1_000_000+i) | uint64(w)<<40 }

	run := func(prefetch bool) (got [words]uint64, c *Cluster) {
		p := testParams(procs, MW)
		p.SpanPrefetch = prefetch
		c = New(p)
		base := c.AllocPageAligned(words * 8)
		mustRun(t, c, func(n *Node) {
			// Writers 1..3 fill disjoint thirds of every page: three
			// concurrent non-owner write notices per page.
			if w := n.ID(); w > 0 {
				for pg := 0; pg < pages; pg++ {
					for i := (w - 1) * 170; i < w*170; i++ {
						n.WriteU64(base+8*(pg*512+i), val(w, i))
					}
				}
			}
			n.Barrier()
			if n.ID() == 0 {
				// One read span over both pages: the plan needs no page
				// fetch (the allocator holds a copy) and diffs from all
				// three writers for each page.
				n.AccessRange(base, words*8, 8, true, false, func(rel int, b []byte) {
					for o := 0; o < len(b); o += 8 {
						got[(rel+o)/8] = mem.LoadUint64(b, o)
					}
				})
			}
			n.Barrier()
		})
		return got, c
	}

	on, onC := run(true)
	off, offC := run(false)
	if on != off {
		t.Fatal("batched and serial reads disagree")
	}
	for w := 1; w <= 3; w++ {
		for pg := 0; pg < pages; pg++ {
			i := (w-1)*170 + 3
			if got := on[pg*512+i]; got != val(w, i) {
				t.Errorf("page %d word %d = %d, want writer %d's value %d", pg, i, got, w, val(w, i))
			}
		}
	}

	s0 := onC.Node(0).Stats
	if s0.BatchedFetches != 1 {
		t.Errorf("batched rounds = %d, want 1 (one Multicall for the whole span)", s0.BatchedFetches)
	}
	if s0.PrefetchPages != int64(pages) {
		t.Errorf("prefetched pages = %d, want %d", s0.PrefetchPages, pages)
	}
	if s0.SerialFallbacks != 0 {
		t.Errorf("serial fallbacks = %d, want 0", s0.SerialFallbacks)
	}
	if want := int64(3 * pages); s0.DiffsApplied != want {
		t.Errorf("diffs applied = %d, want %d (three writers x %d pages)", s0.DiffsApplied, want, pages)
	}
	// The serial engine issues one diff Multicall per page (3 requests
	// each); the batch merges them into 3 requests total.
	if onMsgs, offMsgs := counts(onC).Messages, counts(offC).Messages; onMsgs >= offMsgs {
		t.Errorf("batching did not reduce messages: on %d, off %d", onMsgs, offMsgs)
	}
	if onT, offT := onC.Transport().Now(), offC.Transport().Now(); onT >= offT {
		t.Errorf("batching did not reduce virtual time: on %v, off %v", onT, offT)
	}
}

// TestSpanSettleRacedOwnerNotice: an owner write notice ingested while
// the batched Multicall is blocked (handler-context reentrancy — this
// node serving a barrier arrival) reaches lrcSpanSettle unplanned. The
// settle must fetch the new owner's copy like another mergeOnce round
// would, not discard the notice and leave the page valid with stale
// content. The test drives the settle directly against a page holding a
// genuinely pending, un-applied owner notice.
func TestSpanSettleRacedOwnerNotice(t *testing.T) {
	c := New(testParams(2, WFS))
	base := c.AllocPageAligned(4096)
	pg := base >> mem.PageShift
	mustRun(t, c, func(n *Node) {
		if n.ID() == 1 {
			for i := 0; i < 8; i++ {
				n.WriteU64(base+8*i, uint64(100+i))
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			if got := n.ReadU64(base); got != 100 {
				t.Errorf("first read = %d, want 100", got)
			}
		}
		n.Barrier()
		if n.ID() == 1 {
			for i := 0; i < 8; i++ {
				n.WriteU64(base+8*i, uint64(200+i))
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			ps := n.pages[pg]
			if best, ok := n.bestOwnerWN(ps); !ok || best.vc.Leq(ps.applied) {
				t.Fatal("precondition: no pending un-applied owner notice")
			}
			pf := n.Stats.PageFetches
			n.lrcSpanSettle(pg, ps)
			if n.Stats.PageFetches == pf {
				t.Error("raced owner notice discarded without fetching the owner's copy")
			}
			if got := mem.LoadUint64(ps.data, 0); got != 200 {
				t.Errorf("settled page holds %d, want the owner's value 200", got)
			}
			if ps.status == pageInvalid {
				t.Error("page not raised to valid after the settle")
			}
		}
		n.Barrier()
	})
}

// TestSpanPrefetchSerialFallback: when a batched page fetch lands on a
// node that holds no copy (the state servePage answers by forwarding —
// an ownership transition in flight), the requester must fall back to
// the serial path for that page and still end up with correct contents,
// via the usual perceived-owner chase.
func TestSpanPrefetchSerialFallback(t *testing.T) {
	const (
		procs = 3
		pages = 2
		words = pages * 512
	)
	var got [words]uint64
	p := testParams(procs, MW)
	c := New(p)
	base := c.AllocPageAligned(words * 8)
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			for i := 0; i < words; i++ {
				n.WriteU64(base+8*i, uint64(7000+i))
			}
		}
		n.Barrier()
		if n.ID() == 1 {
			// Simulate a stale owner perception mid-transition: point
			// both pages at node 2, which has no copy. The batched fetch
			// must come back unserved and the serial path must chase
			// node 2's own perception back to node 0.
			for pg := 0; pg < pages; pg++ {
				n.pages[base>>mem.PageShift+pg].perceivedOwner = 2
			}
			n.AccessRange(base, words*8, 8, true, false, func(rel int, b []byte) {
				for o := 0; o < len(b); o += 8 {
					got[(rel+o)/8] = mem.LoadUint64(b, o)
				}
			})
		}
		n.Barrier()
	})

	for i := 0; i < words; i += 123 {
		if got[i] != uint64(7000+i) {
			t.Errorf("word %d = %d, want %d", i, got[i], 7000+i)
		}
	}
	s1 := c.Node(1).Stats
	if s1.BatchedFetches != 1 {
		t.Errorf("batched rounds = %d, want 1", s1.BatchedFetches)
	}
	if s1.SerialFallbacks != int64(pages) {
		t.Errorf("serial fallbacks = %d, want %d (every page came back unserved)", s1.SerialFallbacks, pages)
	}
	if s1.PrefetchPages != 0 {
		t.Errorf("prefetched pages = %d, want 0", s1.PrefetchPages)
	}
	if fw := c.Node(2).Stats.Forwards; fw != int64(pages) {
		t.Errorf("node 2 forwards = %d, want %d (one per unserved page)", fw, pages)
	}
}
