package core

import (
	"testing"

	"adsm/internal/mem"
	"adsm/internal/vc"
)

// TestHLRCNoDiffAccumulation: the defining property — diffs are flushed to
// the home and retired at every interval close, so no node ever carries a
// live diff across a synchronization point and GC never runs.
func TestHLRCNoDiffAccumulation(t *testing.T) {
	p := testParams(4, HLRC)
	p.DiffSpaceLimit = 2 * 1024 // would force GC at nearly every barrier under MW
	c := New(p)
	const pages = 4
	base := c.AllocPageAligned(pages * mem.PageSize)
	mustRun(t, c, func(n *Node) {
		for r := 1; r <= 6; r++ {
			for pg := 0; pg < pages; pg++ {
				half := n.ID() % 2 * (mem.PageSize / 2)
				for i := 0; i < 32; i++ {
					n.WriteU64(base+pg*mem.PageSize+half+8*i, uint64(r*1000+n.ID()*100+i))
				}
			}
			n.Barrier()
			for pg := 0; pg < pages; pg++ {
				for p2 := 0; p2 < 2; p2++ {
					// The barrier orders rounds, and within a round the last
					// writer of each half wins deterministically only for the
					// halves a single node wrote; just read them to force
					// fetches.
					_ = n.ReadU64(base + pg*mem.PageSize + p2*(mem.PageSize/2))
				}
			}
			n.Barrier()
		}
	})
	if got := c.GCRuns(); got != 0 {
		t.Errorf("HLRC ran %d garbage collections, want 0", got)
	}
	tot := c.Totals()
	if tot.DiffsCreated == 0 {
		t.Errorf("HLRC created no diffs (writers must twin and diff)")
	}
	if tot.DiffsApplied == 0 {
		t.Errorf("no diffs were applied at the homes")
	}
	for _, n := range c.nodes {
		if n.liveDiffs != 0 {
			t.Errorf("node %d still holds %d live diffs", n.id, n.liveDiffs)
		}
		if n.liveDiffBytes != 0 {
			t.Errorf("node %d live diff bytes = %d, want 0", n.id, n.liveDiffBytes)
		}
		// Interval/write-notice history is truncated at barriers (HLRC has
		// no GC to do it), so after the final barrier at most the last
		// round's worth survives.
		ivs := 0
		for p := range n.intervals {
			ivs += len(n.intervals[p])
		}
		if ivs > c.params.Procs {
			t.Errorf("node %d retains %d intervals after final barrier", n.id, ivs)
		}
		for pg := range n.pages {
			if got := len(n.pages[pg].knownWNs); got > c.params.Procs {
				t.Errorf("node %d page %d retains %d write notices", n.id, pg, got)
			}
		}
	}
}

// TestHLRCHomesServeFetches: faulting nodes fetch whole pages from the
// static home (pg % procs), never chasing owners — so there are no
// ownership requests and no request forwarding.
func TestHLRCHomesServeFetches(t *testing.T) {
	c := New(testParams(4, HLRC))
	const pages = 8
	base := c.AllocPageAligned(pages * mem.PageSize)
	mustRun(t, c, func(n *Node) {
		if n.ID() == 3 {
			for pg := 0; pg < pages; pg++ {
				n.WriteU64(base+pg*mem.PageSize, uint64(100+pg))
			}
		}
		n.Barrier()
		for pg := 0; pg < pages; pg++ {
			if got := n.ReadU64(base + pg*mem.PageSize); got != uint64(100+pg) {
				t.Errorf("node %d page %d = %d, want %d", n.ID(), pg, got, 100+pg)
			}
		}
		n.Barrier()
	})
	tot := c.Totals()
	if tot.OwnershipRequests != 0 || tot.OwnershipGrants != 0 || tot.OwnershipRefusals != 0 {
		t.Errorf("HLRC used the ownership protocol: req=%d grant=%d refuse=%d",
			tot.OwnershipRequests, tot.OwnershipGrants, tot.OwnershipRefusals)
	}
	if tot.Forwards != 0 {
		t.Errorf("HLRC forwarded %d requests; homes are static", tot.Forwards)
	}
	if tot.PageFetches == 0 {
		t.Errorf("readers fetched no pages")
	}
	// Every home still holds a copy of its own pages.
	for pg := 0; pg < pages; pg++ {
		home := c.nodes[0].homes[pg]
		if c.nodes[home].pages[pg].data == nil {
			t.Errorf("home %d lost its copy of page %d", home, pg)
		}
	}
}

// TestHLRCLockChain: migratory read-modify-write under a lock — the
// pattern where eager flushing must not lose the happened-before order of
// the updates.
func TestHLRCLockChain(t *testing.T) {
	const procs, rounds = 4, 20
	c := New(testParams(procs, HLRC))
	ctr := c.Alloc(8)
	mustRun(t, c, func(n *Node) {
		for r := 0; r < rounds; r++ {
			n.Acquire(0)
			n.WriteU64(ctr, n.ReadU64(ctr)+1)
			n.Release(0)
		}
		n.Barrier()
		if got := n.ReadU64(ctr); got != procs*rounds {
			t.Errorf("node %d: counter = %d, want %d", n.ID(), got, procs*rounds)
		}
	})
}

// TestHLRCBarrierReleaseClearsDroppedTails: the barrier-time metadata
// truncation re-slices in place, and the dropped tail of the backing
// array must be nil'd — otherwise every retired *Interval and
// *WriteNotice stays reachable (and uncollectable) for the whole run.
func TestHLRCBarrierReleaseClearsDroppedTails(t *testing.T) {
	c := New(testParams(2, HLRC))
	c.Alloc(mem.PageSize) // one used page
	n := c.nodes[0]
	n.buildPages(c.usedPages())

	mk := func(ts int32) *Interval {
		v := vc.New(2)
		v[1] = ts
		return &Interval{Proc: 1, TS: ts, VC: v}
	}
	iv1, iv2, iv3 := mk(1), mk(2), mk(3)
	n.intervals[1] = []*Interval{iv1, iv2, iv3}
	ps := n.pages[0]
	wn1 := &WriteNotice{Page: 0, Int: iv1}
	wn3 := &WriteNotice{Page: 0, Int: iv3}
	ps.knownWNs = []*WriteNotice{wn1, wn3}
	n.lastGlobal[1] = 2 // intervals 1 and 2 are globally known: droppable

	origIvs := n.intervals[1]
	origWNs := ps.knownWNs
	hlrcPolicy{}.OnBarrierRelease(n, n.c.params.Protocol)

	if len(n.intervals[1]) != 1 || n.intervals[1][0] != iv3 {
		t.Fatalf("intervals after release = %v, want just TS 3", n.intervals[1])
	}
	for i := 1; i < len(origIvs); i++ {
		if origIvs[i] != nil {
			t.Errorf("retired interval at backing index %d still reachable", i)
		}
	}
	if len(ps.knownWNs) != 1 || ps.knownWNs[0] != wn3 {
		t.Fatalf("knownWNs after release has %d entries, want just the TS-3 notice", len(ps.knownWNs))
	}
	if origWNs[1] != nil {
		t.Errorf("retired write notice at backing index 1 still reachable")
	}
}

// TestHLRCHomeSelfWriteApplied: a home that writes its own page must
// publish an applied vector dominating its own write notices — otherwise
// a reader that learned those notices could never settle against the
// home's copy (the "stale copy" panic in MakeValid) and the home itself
// would reject its own fetches.
func TestHLRCHomeSelfWriteApplied(t *testing.T) {
	const procs = 4
	c := New(testParams(procs, HLRC))
	base := c.AllocPageAligned(procs * mem.PageSize)
	mustRun(t, c, func(n *Node) {
		// Every node writes exactly the page it is the static home of, for
		// several rounds; everyone then reads every page, so each fetch
		// comes from a home serving a page it wrote itself.
		for r := 1; r <= 4; r++ {
			n.WriteU64(base+n.ID()*mem.PageSize, uint64(r*100+n.ID()))
			n.Barrier()
			for p := 0; p < procs; p++ {
				if got := n.ReadU64(base + p*mem.PageSize); got != uint64(r*100+p) {
					t.Errorf("round %d: node %d reads home %d's page = %d, want %d",
						r, n.ID(), p, got, r*100+p)
				}
			}
			n.Barrier()
		}
	})
	for pg := 0; pg < procs; pg++ {
		home := c.nodes[0].homes[pg]
		ps := c.nodes[home].pages[base/mem.PageSize+pg]
		if ps.myLastWN == nil {
			t.Fatalf("home %d never wrote page %d", home, pg)
		}
		if !ps.myLastWN.Int.VC.Leq(ps.applied) {
			t.Errorf("home %d applied %v does not dominate its own write notice %v",
				home, ps.applied, ps.myLastWN.Int.VC)
		}
	}
}

// TestHLRCFalseSharingFlush: concurrent writers of one page flush disjoint
// diffs to the same home, which merges them; readers get the merged page
// in one fetch.
func TestHLRCFalseSharingFlush(t *testing.T) {
	const procs = 4
	c := New(testParams(procs, HLRC))
	base := c.AllocPageAligned(mem.PageSize)
	mustRun(t, c, func(n *Node) {
		for r := 1; r <= 5; r++ {
			for s := 0; s < 8; s++ {
				slot := s*procs + n.ID()
				n.WriteU64(base+8*slot, uint64(r*1000+n.ID()*10+s))
			}
			n.Barrier()
			for p := 0; p < procs; p++ {
				for s := 0; s < 8; s++ {
					slot := s*procs + p
					if got, want := n.ReadU64(base+8*slot), uint64(r*1000+p*10+s); got != want {
						t.Fatalf("round %d: node %d slot %d = %d, want %d", r, n.ID(), slot, got, want)
					}
				}
			}
			n.Barrier()
		}
	})
}
