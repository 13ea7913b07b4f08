package core

import (
	"testing"

	"adsm/internal/mem"
	"adsm/internal/sim"
)

func TestNoteLiveHighWater(t *testing.T) {
	var n Node
	n.liveTwinBytes = 100
	n.noteLive()
	n.liveDiffBytes = 50
	n.noteLive()
	if n.Stats.MaxLiveTwinDiff != 150 {
		t.Fatalf("MaxLiveTwinDiff = %d, want 150", n.Stats.MaxLiveTwinDiff)
	}
	n.liveTwinBytes = 0
	n.noteLive()
	if n.Stats.MaxLiveTwinDiff != 150 {
		t.Fatalf("high-water mark must not regress: %d", n.Stats.MaxLiveTwinDiff)
	}
}

// TestTwinRecycling: a twin that shares a frame is never pooled, and a
// private twin's buffer goes back to its node when the twin is diffed, for
// the next page copy to reuse. Node 1's first twin of page A is the frame
// node 0 served it; its second is a private copy, made because nobody
// shared node 1's own copy in between. The recycled buffer must then hold
// exactly the page it now backs (nothing of page A survives), and the twin
// accounting must read exactly as if every twin had been allocated afresh.
func TestTwinRecycling(t *testing.T) {
	const patA, patB = 0xAAAAAAAAAAAAAAAA, 0xBBBBBBBBBBBBBBBB
	p := testParams(2, MW)
	c := New(p)
	base := c.AllocPageAligned(2 * mem.PageSize)
	pgA, pgB := base>>mem.PageShift, base>>mem.PageShift+1
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			for off := 0; off < mem.PageSize; off += 8 {
				n.WriteU64(base+off, patA)
				n.WriteU64(base+mem.PageSize+off, patB)
			}
		}
		n.Barrier()
		if n.ID() == 1 {
			n.WriteU64(base, 1) // fetches page A from node 0, then twins it
			ps := n.pages[pgA]
			if !ps.twinShared || &ps.twin[0] != &c.nodes[0].pages[pgA].data[0] {
				t.Fatalf("page A's first twin is not the frame node 0 served")
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			n.ReadU64(base) // pulls node 1's diff, which retires the shared twin
		}
		n.Barrier()
		var private []byte
		if n.ID() == 1 {
			if n.pages[pgA].twin != nil || len(n.freePages) != 0 {
				t.Fatalf("a retired shared twin went to the pool (%d free pages)", len(n.freePages))
			}
			n.WriteU64(base+8, 2) // our own copy of A was never served: a private twin
			ps := n.pages[pgA]
			if private = ps.twin; ps.twinShared || ps.dataShared {
				t.Fatalf("page A's second twin or its data is shared")
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			n.ReadU64(base) // retires the private twin
		}
		n.Barrier()
		if n.ID() == 1 {
			if len(n.freePages) != 1 || &n.freePages[0][0] != &private[0] {
				t.Fatalf("free list %d long, want exactly the retired private twin", len(n.freePages))
			}
			n.WriteU64(base+mem.PageSize+8, 2) // fetches page B, twins it, copies the data
			ps := n.pages[pgB]
			if &ps.data[0] != &private[0] || len(n.freePages) != 0 {
				t.Fatalf("page B's private copy was not taken from the free list")
			}
			for off := 0; off < mem.PageSize; off += 8 {
				want := uint64(patB)
				if off == 8 {
					want = 2
				}
				if got := mem.LoadUint64(ps.data, off); got != want {
					t.Fatalf("recycled copy at %d = %#x, want %#x", off, got, want)
				}
				if got := mem.LoadUint64(ps.twin, off); got != patB {
					t.Fatalf("page B's twin at %d = %#x, want the pristine %#x", off, got, uint64(patB))
				}
			}
			s := &n.Stats
			if s.TwinsCreated != 3 || s.TwinBytes != 3*mem.PageSize || n.liveTwinBytes != mem.PageSize {
				t.Fatalf("twins %d, cumulative %d B, live %d B; want 3, %d, %d",
					s.TwinsCreated, s.TwinBytes, n.liveTwinBytes, 3*mem.PageSize, mem.PageSize)
			}
			if want := n.liveTwinBytes + n.liveDiffBytes; s.MaxLiveTwinDiff != want {
				t.Fatalf("MaxLiveTwinDiff %d, want the current twin plus diff pool %d", s.MaxLiveTwinDiff, want)
			}
		}
		n.Barrier()
	})
}

// TestGCEmptiesTwinFreeList: the free list only ever holds what was a live
// private buffer, at most a copy and a twin per page, and a garbage
// collection, which drops the twin pool, drops it too.
func TestGCEmptiesTwinFreeList(t *testing.T) {
	p := testParams(2, MW)
	p.DiffSpaceLimit = 6 * 1024
	c := New(p)
	const pages = 4
	base := c.AllocPageAligned(pages * mem.PageSize)
	collected := 0
	mustRun(t, c, func(n *Node) {
		for r := 1; r <= 8; r++ {
			for pg := 0; pg < pages; pg++ {
				n.WriteU64(base+pg*mem.PageSize+8*n.ID(), uint64(r))
			}
			before := c.GCRuns()
			n.Barrier()
			if c.GCRuns() > before {
				collected++
				if n.freePages != nil {
					t.Errorf("round %d: node %d holds %d free pages right after a collection", r, n.ID(), len(n.freePages))
				}
			}
			for pg := 0; pg < pages; pg++ {
				n.ReadU64(base + pg*mem.PageSize + 8*(1-n.ID()))
			}
			n.Barrier()
			if len(n.freePages) > 2*pages {
				t.Errorf("round %d: %d free pages, more than %d pages can hold at once", r, len(n.freePages), pages)
			}
		}
	})
	if collected == 0 {
		t.Fatal("no barrier ran a collection: the test exercised nothing")
	}
}

// TestLoneNodeCollects: a one-node cluster's barrier sends no messages, but
// it still collects once the twin+diff pool is over the limit, so the pool
// stays bounded instead of keeping every diff the node ever made. The
// collection costs no virtual time and changes no value: the run takes as
// long, and reads the same, as one whose limit is never reached.
func TestLoneNodeCollects(t *testing.T) {
	const pages, rounds, words = 8, 24, 64
	val := func(r, pg, w int) uint64 { return uint64(r<<16 | pg<<8 | w) }
	run := func(limit int64) (*Cluster, *Node, sim.Time) {
		p := testParams(1, MW)
		p.DiffSpaceLimit = limit
		c := New(p)
		base := c.AllocPageAligned(pages * mem.PageSize)
		var lone *Node
		elapsed := mustRun(t, c, func(n *Node) {
			lone = n
			for r := 1; r <= rounds; r++ {
				for pg := 0; pg < pages; pg++ {
					for w := 0; w < words; w++ {
						n.WriteU64(base+pg*mem.PageSize+8*w, val(r, pg, w))
					}
				}
				n.Barrier()
			}
			for pg := 0; pg < pages; pg++ {
				for w := 0; w < words; w++ {
					if got := n.ReadU64(base + pg*mem.PageSize + 8*w); got != val(rounds, pg, w) {
						t.Errorf("page %d word %d = %#x, want %#x", pg, w, got, val(rounds, pg, w))
					}
				}
			}
		})
		return c, lone, elapsed
	}
	const limit = 4 * mem.PageSize
	c, n, elapsed := run(limit)
	kept, keptNode, keptElapsed := run(1 << 40)
	if c.GCRuns() == 0 || kept.GCRuns() != 0 {
		t.Fatalf("collections: %d under a %d B limit, %d under no limit; want some, then none", c.GCRuns(), limit, kept.GCRuns())
	}
	// One round adds at most one twin per page before the barrier sees it;
	// kept, the diffs of every round pile up well past that.
	bound := int64(limit + pages*mem.PageSize)
	if n.Stats.MaxLiveTwinDiff > bound || keptNode.Stats.MaxLiveTwinDiff <= bound {
		t.Errorf("twin+diff pool peaked at %d B collected and %d B kept, want at most %d and more than that",
			n.Stats.MaxLiveTwinDiff, keptNode.Stats.MaxLiveTwinDiff, bound)
	}
	if elapsed != keptElapsed {
		t.Errorf("virtual time %v with collections, %v without", elapsed, keptElapsed)
	}
}
