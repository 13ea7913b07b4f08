package core

import (
	"fmt"
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
		for p := range n.logs {
			ivs += len(n.logs[p].rows)
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
// truncation cuts every log at the global knowledge vector and prunes the
// HLRC pages' known notices with it, but never past a row a page still
// names: a page's pending notice holds its writer's log from that row on,
// and a cut log keeps answering refs and shipments above the cut.
func TestHLRCBarrierReleaseClearsDroppedTails(t *testing.T) {
	c := New(testParams(2, HLRC))
	c.Alloc(2 * mem.PageSize) // two used pages
	n := c.nodes[0]
	n.buildPages(c.usedPages())
	for pg := range n.pages {
		hlrcPolicy{}.InitPage(n, pg, n.pages[pg])
	}

	var refs []wnRef
	for ts := int32(1); ts <= 4; ts++ {
		refs = append(refs, n.addInterval(1, vc.VC{0, ts}, wnRow{page: 0}, wnRow{page: 1})...)
	}
	known, other := n.pages[0], n.pages[1]
	known.knownWNs = []wnRef{refs[0], refs[4]} // intervals 1 and 3
	n.lastGlobal[1] = 2                        // intervals 1 and 2 are globally known: droppable
	hlrcPolicy{}.OnBarrierRelease(n, HLRC)

	lg := &n.logs[1]
	if lg.base != 3 || len(lg.rows) != 2 || lg.end() != 4 {
		t.Fatalf("log after release spans [%d,%d] in %d rows, want [3,4]", lg.base, lg.end(), len(lg.rows))
	}
	if len(lg.vcs) != 4 || len(lg.wns) != 4 {
		t.Errorf("log slabs hold %d clock entries and %d notices, want 4 and 4", len(lg.vcs), len(lg.wns))
	}
	if len(known.knownWNs) != 1 || known.knownWNs[0] != refs[4] {
		t.Fatalf("knownWNs after release = %v, want just the TS-3 notice", known.knownWNs)
	}
	if wn := n.wn(refs[7]); wn.page != 1 || wn.ts != 4 || !wn.vc.Equal(vc.VC{0, 4}) {
		t.Errorf("ref %v resolves to %+v after the cut", refs[7], wn)
	}

	// A pending notice of interval 3 holds the next cut at 2.
	other.pending = []wnRef{refs[5]}
	n.lastGlobal[1] = 4
	hlrcPolicy{}.OnBarrierRelease(n, HLRC)
	if lg.base != 3 || lg.end() != 4 {
		t.Fatalf("log with a pending notice at 3 spans [%d,%d], want [3,4]", lg.base, lg.end())
	}
	if got := n.intervalsSince([]int32{0, 3}); len(got.Heads) != 1 || got.Heads[0].ts != 4 {
		t.Errorf("shipment above 3 after the cut = %+v", got.Heads)
	}
	other.pending = nil
	hlrcPolicy{}.OnBarrierRelease(n, HLRC)
	if len(lg.rows) != 0 || lg.base != 5 {
		t.Errorf("log with nothing held spans [%d,%d] in %d rows, want empty from 5", lg.base, lg.end(), len(lg.rows))
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
	// lastVC[p] is the clock of home p's last write notice on its page,
	// copied before the barrier: HLRC's barrier release clears the ref.
	lastVC := make([]vc.VC, procs)
	dominates := func(n *Node, when string) {
		if ps := n.pages[base/mem.PageSize+n.ID()]; !lastVC[n.ID()].Leq(ps.applied) {
			t.Errorf("%s: home %d applied %v does not dominate its own write notice %v",
				when, n.ID(), ps.applied, lastVC[n.ID()])
		}
	}
	mustRun(t, c, func(n *Node) {
		// Every node writes exactly the page it is the static home of, for
		// several rounds; everyone then reads every page, so each fetch
		// comes from a home serving a page it wrote itself.
		for r := 1; r <= 4; r++ {
			n.WriteU64(base+n.ID()*mem.PageSize, uint64(r*100+n.ID()))
			// The barrier closes the interval first anyway; closed here,
			// its notice's clock can be copied before the barrier drops
			// the ref.
			n.closeInterval()
			ps := n.pages[base/mem.PageSize+n.ID()]
			if !ps.myLastWN.ok() {
				t.Errorf("home %d never wrote page %d", n.ID(), n.ID())
			} else {
				lastVC[n.ID()] = n.ivc(ps.myLastWN).Copy()
			}
			n.Barrier()
			for p := 0; p < procs; p++ {
				if got := n.ReadU64(base + p*mem.PageSize); got != uint64(r*100+p) {
					t.Errorf("round %d: node %d reads home %d's page = %d, want %d",
						r, n.ID(), p, got, r*100+p)
				}
			}
			dominates(n, fmt.Sprintf("round %d, after the reads", r))
			n.Barrier()
		}
	})
	for _, n := range c.nodes {
		if home := c.nodes[0].homes[base/mem.PageSize+n.ID()]; int(home) != n.ID() {
			t.Fatalf("page %d's home is %d, not its writer %d", base/mem.PageSize+n.ID(), home, n.ID())
		}
		dominates(n, "after the run")
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
