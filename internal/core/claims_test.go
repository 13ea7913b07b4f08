package core

import (
	"strings"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/sim"
)

// Tests pinning specific claims from the paper's text.

// TestDiffAccumulation: "Diff accumulation occurs in connection with
// migratory data where a sequence of synchronizing processors write the
// same data one after another. If a processor reads the data written by
// one of the writers, diffs from all of the preceding writers need to be
// applied" (Section 3.2). Under MW a late reader applies a chain of
// diffs; under WFS the page migrates whole and no diffs exist.
func TestDiffAccumulation(t *testing.T) {
	run := func(proto Protocol) *Cluster {
		c := New(testParams(4, proto))
		base := c.AllocPageAligned(mem.PageSize)
		mustRun(t, c, func(n *Node) {
			// Node 3 holds a copy from the start (first touch is otherwise
			// served by a whole-page fetch that subsumes the first diff).
			if n.ID() == 3 {
				_ = n.ReadU64(base)
			}
			n.Barrier()
			// Nodes 0..2 write the whole page one after another under the
			// lock; node 3 reads only at the end.
			for turn := 0; turn < 3; turn++ {
				if n.ID() == turn {
					n.Acquire(0)
					for off := 0; off < mem.PageSize; off += 8 {
						n.WriteU64(base+off, uint64(turn)<<40|uint64(off))
					}
					n.Release(0)
				}
				n.Barrier()
			}
			if n.ID() == 3 {
				if got := n.ReadU64(base + 8); got != uint64(2)<<40|8 {
					t.Errorf("reader sees %x", got)
				}
			}
			n.Barrier()
		})
		return c
	}
	mw := run(MW)
	if applied := mw.Node(3).Stats.DiffsApplied; applied < 3 {
		t.Errorf("MW reader should apply the whole diff chain, applied %d", applied)
	}

	wfs := run(WFS)
	if wfs.Totals().DiffsCreated != 0 {
		t.Errorf("WFS migratory chain must not create diffs, created %d", wfs.Totals().DiffsCreated)
	}
	// MW also moves more data for the same access pattern.
	if counts(wfs).DataBytes >= counts(mw).DataBytes {
		t.Errorf("WFS moved %d bytes, MW %d — accumulation should cost MW more",
			counts(wfs).DataBytes, counts(mw).DataBytes)
	}
}

// TestReadFromFormerOwner: "Processor q may not be the current owner, but
// this is correct, because, according to LRC, p does not necessarily need
// to see the latest write, but only the latest write by a processor with
// which it has synchronized" (Section 2.3).
func TestReadFromFormerOwner(t *testing.T) {
	c := New(testParams(3, WFS))
	base := c.AllocPageAligned(mem.PageSize)
	mustRun(t, c, func(n *Node) {
		switch n.ID() {
		case 0:
			n.Acquire(0)
			n.WriteU64(base, 77)
			n.Release(0)
			n.Compute(30 * sim.Millisecond)
		case 1:
			// Takes ownership later, without node 2 hearing about it.
			n.Compute(10 * sim.Millisecond)
			n.Acquire(1)
			n.WriteU64(base+8, 88)
			n.Release(1)
			n.Compute(20 * sim.Millisecond)
		case 2:
			// Synchronized only with node 0's release: must see 77; reads
			// from node 0 even though node 1 is by now the current owner.
			n.Compute(20 * sim.Millisecond)
			n.Acquire(0)
			if got := n.ReadU64(base); got != 77 {
				t.Errorf("reader sees %d, want 77", got)
			}
			n.Release(0)
		}
		n.Barrier()
		// After the barrier everyone must see both writes.
		if n.ReadU64(base) != 77 || n.ReadU64(base+8) != 88 {
			t.Errorf("node %d: final state wrong", n.ID())
		}
		n.Barrier()
	})
}

// TestAdaptiveGCCollapsesToSW: after a garbage collection under the
// adaptive protocols "only the last owner validates its copy ... On
// future access misses, all processors will thus retrieve the owner's
// copy of the page" (Section 3.1.1).
func TestAdaptiveGCCollapsesToSW(t *testing.T) {
	p := testParams(2, WFS)
	p.DiffSpaceLimit = 4 * 1024 // force GC quickly
	c := New(p)
	const pages = 3
	base := c.AllocPageAligned(pages * mem.PageSize)
	mustRun(t, c, func(n *Node) {
		for r := 1; r <= 6; r++ {
			for pg := 0; pg < pages; pg++ {
				half := n.ID() * 2048
				for off := 0; off < 2048; off += 8 {
					n.WriteU64(base+pg*mem.PageSize+half+off, uint64(r*1000+off)|uint64(r)<<33)
				}
				// Overlap in time so ownership requests hit owners with
				// uncommitted writes: genuine refusals, twins and diffs.
				n.Compute(200 * sim.Microsecond)
			}
			n.Barrier()
			for pg := 0; pg < pages; pg++ {
				want := uint64(r*1000) | uint64(r)<<33
				if got := n.ReadU64(base + pg*mem.PageSize + (1-n.ID())*2048); got != want {
					t.Errorf("round %d node %d page %d: %x want %x", r, n.ID(), pg, got, want)
				}
			}
			n.Barrier()
		}
	})
	if c.GCRuns() == 0 {
		t.Skip("workload did not trigger GC at this scale")
	}
	// After a GC every page has exactly one ownership authority.
	for pg := 0; pg < pages; pg++ {
		authorities := 0
		for i := 0; i < 2; i++ {
			ps := c.Node(i).pages[(base>>mem.PageShift)+pg]
			if ps.owner || ps.wasLast {
				authorities++
			}
		}
		if authorities != 1 {
			t.Errorf("page %d has %d ownership authorities after GC", pg, authorities)
		}
	}
}

// TestCopysetFeedbackBlocksResume (mechanism 1 of Section 3.1.2): a
// writer does not resume ownership requests while a copyset member still
// reports the page as falsely shared.
func TestCopysetFeedbackBlocksResume(t *testing.T) {
	c := New(testParams(2, WFS))
	base := c.AllocPageAligned(mem.PageSize)
	mustRun(t, c, func(n *Node) {
		// Establish false sharing: concurrent writes to disjoint halves.
		for i := 0; i < 32; i++ {
			n.WriteU64(base+n.ID()*2048+8*i, uint64(i+1))
			n.Compute(20 * sim.Microsecond)
		}
		n.Barrier()
		_ = n.ReadU64(base + (1-n.ID())*2048) // fetch diffs: piggybacks FS view
		n.Barrier()
	})
	tot := c.Totals()
	if tot.OwnershipRefusals == 0 {
		t.Fatalf("false sharing was not detected")
	}
	// Both nodes must perceive the false sharing.
	fsSeen := 0
	for i := 0; i < 2; i++ {
		if c.Node(i).pages[base>>mem.PageShift].seesFS {
			fsSeen++
		}
	}
	if fsSeen == 0 {
		t.Errorf("no node retained a false-sharing perception")
	}
	// And shouldResumeSW must gate on it.
	for i := 0; i < 2; i++ {
		ps := c.Node(i).pages[base>>mem.PageShift]
		if ps.seesFS && c.Node(i).shouldResumeSW(ps) {
			t.Errorf("node %d would resume ownership despite perceived FS", i)
		}
	}
}

// TestEventLimitAborts: runaway protocols surface as an error, not a hang.
func TestEventLimitAborts(t *testing.T) {
	p := testParams(2, MW)
	p.EventLimit = 50
	c := New(p)
	base := c.Alloc(8)
	_, err := c.Run(func(n *Node) {
		for i := 0; ; i++ {
			n.Acquire(0)
			n.WriteU64(base, uint64(i))
			n.Release(0)
			n.Compute(sim.Millisecond)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "event limit") {
		t.Fatalf("expected event-limit error, got %v", err)
	}
}

// TestOwnershipPiggybackOnInvalidPage: "in the case of a write fault on
// an invalid page, the ownership request gets piggybacked on the page
// request" — a single request/response pair serves both.
func TestOwnershipPiggybackOnInvalidPage(t *testing.T) {
	c := New(testParams(2, WFS))
	base := c.AllocPageAligned(mem.PageSize)
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			n.Acquire(0)
			n.WriteU64(base, 5)
			n.Release(0)
		}
		n.Barrier()
		if n.ID() == 1 {
			// Write fault on a page node 1 never had: one combined
			// ownership+page exchange (2 messages), no separate fetch.
			before := counts(c).Messages
			n.Acquire(0)
			n.WriteU64(base+8, 6)
			n.Release(0)
			delta := counts(c).Messages - before
			// Lock handoff costs up to 3 messages; the combined
			// ownership+page transfer costs 2. Anything above 5 means a
			// separate page fetch happened.
			if delta > 5 {
				t.Errorf("write fault on invalid page used %d messages; piggybacking should bound it at 5", delta)
			}
		}
		n.Barrier()
	})
}
