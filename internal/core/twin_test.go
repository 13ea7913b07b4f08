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

// TestTwinRecycling: a twin's buffer goes back to its node when the twin is
// diffed and the next write fault reuses it. The recycled twin must be a
// pristine copy of the page it now guards (nothing of the previous page
// survives), the twin accounting must read exactly as if it had been
// allocated afresh, and garbage collection must empty the free list.
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
		var first []byte
		if n.ID() == 1 {
			n.WriteU64(base, 1) // write fault on page A: the first twin
			first = n.pages[pgA].twin
			if first == nil || n.liveTwinBytes != mem.PageSize {
				t.Fatalf("after the first write: twin %v, LiveTwinBytes %d", first != nil, n.liveTwinBytes)
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			n.ReadU64(base) // pulls node 1's diff, which retires the twin
		}
		n.Barrier()
		if n.ID() == 1 {
			if n.pages[pgA].twin != nil || n.liveTwinBytes != 0 {
				t.Fatalf("twin of page A still live after its diff was served")
			}
			if len(n.freeTwins) != 1 || &n.freeTwins[0][0] != &first[0] {
				t.Fatalf("free list %d long, want exactly the retired twin", len(n.freeTwins))
			}
			n.WriteU64(base+mem.PageSize+8, 2) // write fault on page B
			tw := n.pages[pgB].twin
			if &tw[0] != &first[0] || len(n.freeTwins) != 0 {
				t.Fatalf("page B's twin was not taken from the free list")
			}
			for off := 0; off < mem.PageSize; off += 8 {
				if got := mem.LoadUint64(tw, off); got != patB {
					t.Fatalf("recycled twin at %d = %#x, want page B's pristine %#x", off, got, uint64(patB))
				}
			}
			s := &n.Stats
			if s.TwinsCreated != 2 || s.TwinBytes != 2*mem.PageSize || n.liveTwinBytes != mem.PageSize {
				t.Fatalf("twins %d, cumulative %d B, live %d B; want 2, %d, %d",
					s.TwinsCreated, s.TwinBytes, n.liveTwinBytes, 2*mem.PageSize, mem.PageSize)
			}
			if want := n.liveTwinBytes + n.liveDiffBytes; s.MaxLiveTwinDiff != want {
				t.Fatalf("MaxLiveTwinDiff %d, want the current twin plus diff pool %d", s.MaxLiveTwinDiff, want)
			}
		}
		n.Barrier()
	})
}

// TestGCEmptiesTwinFreeList: the free list only ever holds what was a live
// twin, and a garbage collection, which drops the twin pool, drops it too.
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
				if n.freeTwins != nil {
					t.Errorf("round %d: node %d holds %d free twins right after a collection", r, n.ID(), len(n.freeTwins))
				}
			}
			for pg := 0; pg < pages; pg++ {
				n.ReadU64(base + pg*mem.PageSize + 8*(1-n.ID()))
			}
			n.Barrier()
			if int64(len(n.freeTwins)) > n.Stats.TwinsCreated {
				t.Errorf("round %d: %d free twins but only %d ever made", r, len(n.freeTwins), n.Stats.TwinsCreated)
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
