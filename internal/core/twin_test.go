package core

import (
	"testing"

	"adsm/internal/mem"
)

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
			if first == nil || n.Stats.LiveTwinBytes != mem.PageSize {
				t.Fatalf("after the first write: twin %v, LiveTwinBytes %d", first != nil, n.Stats.LiveTwinBytes)
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			n.ReadU64(base) // pulls node 1's diff, which retires the twin
		}
		n.Barrier()
		if n.ID() == 1 {
			if n.pages[pgA].twin != nil || n.Stats.LiveTwinBytes != 0 {
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
			if s.TwinsCreated != 2 || s.CumTwinBytes != 2*mem.PageSize || s.LiveTwinBytes != mem.PageSize {
				t.Fatalf("twins %d, cumulative %d B, live %d B; want 2, %d, %d",
					s.TwinsCreated, s.CumTwinBytes, s.LiveTwinBytes, 2*mem.PageSize, mem.PageSize)
			}
			if want := s.LiveTwinBytes + s.LiveDiffBytes; s.MaxLiveBytes != want {
				t.Fatalf("MaxLiveBytes %d, want the current twin plus diff pool %d", s.MaxLiveBytes, want)
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
