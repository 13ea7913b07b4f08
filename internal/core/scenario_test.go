package core

import (
	"testing"

	"adsm/internal/sim"
)

// These tests reproduce Figure 1 of the paper: the behaviour of the WFS
// protocol under the three canonical access patterns. Node 0 is the initial
// owner of every page (the allocator).

// TestFigure1ProducerConsumer: p1 writes, p2 only reads (via lock
// synchronization). The page must move but ownership must stay with the
// producer, and no twins or diffs may be created.
func TestFigure1ProducerConsumer(t *testing.T) {
	for _, proto := range []Protocol{WFS, WFSWG} {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(2, proto))
			base := c.AllocPageAligned(4096)
			mustRun(t, c, func(n *Node) {
				for r := 1; r <= 5; r++ {
					// Values vary in all 8 bytes so whole-page overwrites
					// produce page-sized diffs (above the WG threshold).
					val := func(r, i int) uint64 { return uint64(r*1000+i) | uint64(r*7+i)<<33 }
					if n.ID() == 0 {
						n.Acquire(0)
						for i := 0; i < 512; i++ {
							n.WriteU64(base+8*i, val(r, i))
						}
						n.Release(0)
					}
					n.Barrier()
					if n.ID() == 1 {
						for i := 0; i < 512; i += 64 {
							if got := n.ReadU64(base + 8*i); got != val(r, i) {
								t.Errorf("round %d: consumer sees %d, want %d", r, got, val(r, i))
							}
						}
					}
					n.Barrier()
				}
			})
			p0 := c.Node(0).pages[base>>12]
			if !p0.owner {
				t.Errorf("producer should remain owner")
			}
			tot := c.Totals()
			if proto == WFS {
				if tot.TwinsCreated != 0 || tot.DiffsCreated != 0 {
					t.Errorf("producer-consumer under WFS must not twin/diff: twins=%d diffs=%d",
						tot.TwinsCreated, tot.DiffsCreated)
				}
				if tot.OwnershipGrants != 0 {
					t.Errorf("ownership must not move in producer-consumer: grants=%d", tot.OwnershipGrants)
				}
			} else {
				// WFS+WG probes the page in MW mode once to measure its
				// (large) write granularity, then returns it to SW mode.
				if p0.mode != modeSW {
					t.Errorf("WFS+WG should settle back to SW for large writes, got %v", p0.mode)
				}
			}
			if tot.PageFetches == 0 {
				t.Errorf("consumer must fetch pages")
			}
		})
	}
}

// TestFigure1Migratory: the page is read then written by alternating
// processors under a lock. Ownership must migrate on the write fault
// (granted, never refused) and no twins may be made.
func TestFigure1Migratory(t *testing.T) {
	c := New(testParams(2, WFS))
	base := c.AllocPageAligned(4096)
	mustRun(t, c, func(n *Node) {
		for r := 0; r < 6; r++ {
			if r%2 == n.ID() {
				n.Acquire(0)
				v := n.ReadU64(base)
				for i := 0; i < 512; i++ {
					n.WriteU64(base+8*i, v+uint64(i+1))
				}
				n.Release(0)
			}
			n.Barrier()
		}
	})
	tot := c.Totals()
	if tot.OwnershipGrants == 0 {
		t.Fatalf("migratory data must migrate ownership")
	}
	if tot.OwnershipRefusals != 0 {
		t.Errorf("migratory pattern must not be refused: refusals=%d", tot.OwnershipRefusals)
	}
	if tot.TwinsCreated != 0 {
		t.Errorf("migratory pattern must not twin: twins=%d", tot.TwinsCreated)
	}
}

// TestFigure1WriteWriteFalseSharing: two processors write different parts
// of the page concurrently. The ownership request must be refused, both
// nodes must end in MW mode, and the page must still merge correctly.
func TestFigure1WriteWriteFalseSharing(t *testing.T) {
	c := New(testParams(2, WFS))
	base := c.AllocPageAligned(4096)
	mustRun(t, c, func(n *Node) {
		// Both write concurrently (no synchronization between them); the
		// compute spacing makes the writes overlap in time, as they would
		// in the real execution the paper describes.
		half := n.ID() * 2048
		for i := 0; i < 256; i++ {
			n.WriteU64(base+half+8*i, uint64(100*(n.ID()+1)+i))
			n.Compute(5 * sim.Microsecond)
		}
		n.Barrier()
		for p := 0; p < 2; p++ {
			if got := n.ReadU64(base + p*2048); got != uint64(100*(p+1)) {
				t.Errorf("node %d: half %d = %d, want %d", n.ID(), p, got, 100*(p+1))
			}
		}
		n.Barrier()
	})
	tot := c.Totals()
	if tot.OwnershipRefusals == 0 {
		t.Fatalf("write-write false sharing must be detected by a refusal")
	}
	for i := 0; i < 2; i++ {
		ps := c.Node(i).pages[base>>12]
		if ps.mode != modeMW {
			t.Errorf("node %d should have the page in MW mode, got %v", i, ps.mode)
		}
	}
	if tot.TwinsCreated == 0 {
		t.Errorf("refused writer must fall back to twinning")
	}
}

// TestPaperExample2 reproduces the second example of Section 3.1.1: p1
// (owner) writes and releases; p2 acquires, writes (granted, version++);
// then p1 writes again without synchronizing — its stale version number
// must cause a refusal, detecting the onset of false sharing.
func TestPaperExample2(t *testing.T) {
	c := New(testParams(2, WFS))
	base := c.AllocPageAligned(4096)
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			n.Acquire(0)
			n.WriteU64(base, 11)
			n.Release(0)
			// Wait for p2 to take ownership, then write WITHOUT acquiring.
			n.Compute(20 * sim.Millisecond)
			n.WriteU64(base+8, 33)
			n.Barrier()
		} else {
			n.Compute(5 * sim.Millisecond)
			n.Acquire(0)
			n.WriteU64(base+16, 22) // write fault -> ownership granted
			n.Release(0)
			// Stay away from the barrier so p1 cannot learn the new version
			// through the barrier manager's handler before its own write.
			n.Compute(25 * sim.Millisecond)
			n.Barrier()
		}
		if got := n.ReadU64(base); got != 11 {
			t.Errorf("node %d: base = %d, want 11", n.ID(), got)
		}
		if got := n.ReadU64(base + 8); got != 33 {
			t.Errorf("node %d: base+8 = %d, want 33", n.ID(), got)
		}
		if got := n.ReadU64(base + 16); got != 22 {
			t.Errorf("node %d: base+16 = %d, want 22", n.ID(), got)
		}
		n.Barrier()
	})
	tot := c.Totals()
	if tot.OwnershipGrants != 1 {
		t.Errorf("expected exactly one grant (p2's), got %d", tot.OwnershipGrants)
	}
	if tot.OwnershipRefusals != 1 {
		t.Errorf("expected exactly one refusal (p1's stale version), got %d", tot.OwnershipRefusals)
	}
}

// TestQuantumDelaysPingPong verifies the pure SW protocol's 1 ms ownership
// quantum: with two writers fighting over one page, ownership can change
// hands at most once per quantum.
func TestQuantumDelaysPingPong(t *testing.T) {
	p := testParams(2, SW)
	c := New(p)
	base := c.AllocPageAligned(4096)
	elapsed := mustRun(t, c, func(n *Node) {
		for r := 0; r < 10; r++ {
			n.WriteU64(base+n.ID()*8, uint64(r))
			n.Compute(400 * sim.Microsecond)
		}
		n.Barrier()
	})
	tot := c.Totals()
	// 19-20 transfers (every write faults after losing the page), each
	// gated by the 1 ms quantum.
	minTime := sim.Time(tot.OwnershipGrants-2) * p.OwnershipQuantum
	if elapsed < minTime {
		t.Errorf("ping-pong finished in %v with %d transfers; quantum should enforce >= %v",
			elapsed, tot.OwnershipGrants, minTime)
	}
	if tot.OwnershipGrants < 3 {
		t.Errorf("expected vigorous ping-pong, got %d grants", tot.OwnershipGrants)
	}
}

// TestMechanism3BarrierDomination: after false sharing stops, a barrier at
// which one write notice dominates all others must flip the page back to
// SW mode (mechanism 3 of Section 3.1.2).
func TestMechanism3BarrierDomination(t *testing.T) {
	c := New(testParams(2, WFS))
	base := c.AllocPageAligned(4096)
	mustRun(t, c, func(n *Node) {
		// Phase 1: genuine false sharing -> MW.
		n.WriteU64(base+n.ID()*2048, uint64(n.ID()+1))
		n.Barrier()
		// Phase 2: only node 0 writes, ordered by barriers.
		for r := 0; r < 4; r++ {
			if n.ID() == 0 {
				n.WriteU64(base, uint64(100+r))
			}
			n.Barrier()
		}
		if got := n.ReadU64(base); got != 103 {
			t.Errorf("node %d: final = %d, want 103", n.ID(), got)
		}
		n.Barrier()
	})
	// Node 1 (the non-writer) must have inferred that sharing stopped.
	ps := c.Node(1).pages[base>>12]
	if ps.mode != modeSW {
		t.Errorf("mechanism 3 should return the page to SW mode at node 1, got %v", ps.mode)
	}
}
