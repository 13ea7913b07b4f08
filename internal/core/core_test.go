package core

import (
	"fmt"
	"strings"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/sim"
	"adsm/internal/stats"
)

// counts returns the traffic c's runtime has counted so far.
func counts(c *Cluster) stats.Counters {
	var s stats.Counters
	c.Transport().Count(&s)
	return s
}

// allProtocols covers every protocol, so every generic coherence test
// gauntlets all six.
var allProtocols = []Protocol{MW, SW, WFS, WFSWG, HLRC, Adaptive}

func testParams(procs int, proto Protocol) Params {
	p := DefaultParams(procs)
	p.Protocol = proto
	p.MaxSharedBytes = 1 << 20
	return p
}

func mustRun(t *testing.T, c *Cluster, body func(n *Node)) sim.Time {
	t.Helper()
	elapsed, err := c.Run(body)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return elapsed
}

func TestSingleNodeReadWrite(t *testing.T) {
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(1, proto))
			base := c.Alloc(1024)
			mustRun(t, c, func(n *Node) {
				for i := 0; i < 128; i++ {
					n.WriteU64(base+8*i, uint64(i*i))
				}
				n.Barrier()
				for i := 0; i < 128; i++ {
					if got := n.ReadU64(base + 8*i); got != uint64(i*i) {
						t.Errorf("slot %d = %d, want %d", i, got, i*i)
					}
				}
			})
		})
	}
}

func TestLockVisibility(t *testing.T) {
	// Producer-consumer through a lock: the consumer must observe all the
	// producer's writes after acquiring the lock the producer released.
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(2, proto))
			base := c.Alloc(4096)
			flag := c.Alloc(8)
			mustRun(t, c, func(n *Node) {
				if n.ID() == 0 {
					n.Acquire(1)
					for i := 0; i < 64; i++ {
						n.WriteU64(base+8*i, uint64(1000+i))
					}
					n.WriteU64(flag, 1)
					n.Release(1)
					n.Barrier()
					return
				}
				// Spin via lock handoff until the flag is set.
				for {
					n.Acquire(1)
					v := n.ReadU64(flag)
					if v == 1 {
						for i := 0; i < 64; i++ {
							if got := n.ReadU64(base + 8*i); got != uint64(1000+i) {
								t.Errorf("slot %d = %d, want %d", i, got, 1000+i)
							}
						}
						n.Release(1)
						break
					}
					n.Release(1)
					n.Compute(2 * sim.Millisecond)
				}
				n.Barrier()
			})
		})
	}
}

func TestBarrierVisibility(t *testing.T) {
	// Each node fills its own page-aligned stripe; after the barrier every
	// node must see every stripe.
	const procs = 4
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(procs, proto))
			base := c.AllocPageAligned(procs * mem.PageSize)
			mustRun(t, c, func(n *Node) {
				stripe := base + n.ID()*mem.PageSize
				for i := 0; i < mem.PageSize/8; i++ {
					n.WriteU64(stripe+8*i, uint64(n.ID()*1_000_000+i))
				}
				n.Barrier()
				for p := 0; p < procs; p++ {
					for i := 0; i < mem.PageSize/8; i += 37 {
						want := uint64(p*1_000_000 + i)
						if got := n.ReadU64(base + p*mem.PageSize + 8*i); got != want {
							t.Fatalf("node %d: stripe %d slot %d = %d, want %d", n.ID(), p, i, got, want)
						}
					}
				}
				n.Barrier()
			})
		})
	}
}

func TestMigratoryCounter(t *testing.T) {
	// Classic migratory pattern: a counter incremented under a lock. Any
	// lost update or stale read breaks the final count.
	const procs, rounds = 4, 25
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(procs, proto))
			ctr := c.Alloc(8)
			mustRun(t, c, func(n *Node) {
				for r := 0; r < rounds; r++ {
					n.Acquire(7)
					v := n.ReadU64(ctr)
					n.Compute(50 * sim.Microsecond)
					n.WriteU64(ctr, v+1)
					n.Release(7)
					n.Compute(sim.Time(100+n.ID()*13) * sim.Microsecond)
				}
				n.Barrier()
				if got := n.ReadU64(ctr); got != procs*rounds {
					t.Errorf("node %d: counter = %d, want %d", n.ID(), got, procs*rounds)
				}
			})
		})
	}
}

func TestFalseSharingDisjointSlots(t *testing.T) {
	// All nodes repeatedly write disjoint words of the SAME page with no
	// synchronization between rounds (pure write-write false sharing,
	// data-race-free at word granularity). After each barrier, everyone
	// must see everyone's latest values.
	const procs, rounds = 4, 6
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(procs, proto))
			base := c.AllocPageAligned(mem.PageSize)
			mustRun(t, c, func(n *Node) {
				for r := 1; r <= rounds; r++ {
					// 16 slots per node, interleaved across the page.
					for s := 0; s < 16; s++ {
						slot := s*procs + n.ID()
						n.WriteU64(base+8*slot, uint64(r*1000+n.ID()*100+s))
					}
					n.Barrier()
					for p := 0; p < procs; p++ {
						for s := 0; s < 16; s++ {
							slot := s*procs + p
							want := uint64(r*1000 + p*100 + s)
							if got := n.ReadU64(base + 8*slot); got != want {
								t.Fatalf("proto %v round %d: node %d sees slot[%d]=%d, want %d",
									proto, r, n.ID(), slot, got, want)
							}
						}
					}
					n.Barrier()
				}
			})
		})
	}
}

func TestMixedLockAndBarrierAccumulation(t *testing.T) {
	// Nodes accumulate into per-region sums under per-region locks; the
	// result is order-independent, so any staleness shows up exactly.
	const procs, regions, rounds = 4, 6, 8
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(procs, proto))
			base := c.AllocPageAligned(regions * 256) // several regions per page
			mustRun(t, c, func(n *Node) {
				for r := 0; r < rounds; r++ {
					reg := (r + n.ID()) % regions
					n.Acquire(reg)
					addr := base + reg*256
					v := n.ReadU64(addr)
					n.WriteU64(addr, v+uint64(n.ID()+1))
					n.Release(reg)
					n.Compute(sim.Time(30+7*n.ID()) * sim.Microsecond)
				}
				n.Barrier()
				var total uint64
				for reg := 0; reg < regions; reg++ {
					total += n.ReadU64(base + reg*256)
				}
				// Every node contributed (id+1) exactly rounds times.
				want := uint64(rounds * (1 + 2 + 3 + 4))
				if total != want {
					t.Errorf("node %d: total = %d, want %d", n.ID(), total, want)
				}
				n.Barrier()
			})
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func(proto Protocol) (sim.Time, int64, int64) {
		c := New(testParams(4, proto))
		base := c.AllocPageAligned(4 * mem.PageSize)
		elapsed, err := c.Run(func(n *Node) {
			for r := 0; r < 4; r++ {
				for i := 0; i < 32; i++ {
					n.WriteU64(base+(n.ID()*mem.PageSize)+8*i, uint64(r*i))
				}
				n.Acquire(0)
				v := n.ReadU64(base)
				n.WriteU64(base, v+1)
				n.Release(0)
				n.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed, counts(c).Messages, counts(c).DataBytes
	}
	for _, proto := range allProtocols {
		e1, m1, b1 := run(proto)
		e2, m2, b2 := run(proto)
		if e1 != e2 || m1 != m2 || b1 != b2 {
			t.Errorf("%v: nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", proto, e1, m1, b1, e2, m2, b2)
		}
	}
}

func TestGarbageCollectionMW(t *testing.T) {
	// Force GC with a tiny diff-space limit, then verify memory is
	// reclaimed and the data is still coherent.
	for _, proto := range []Protocol{MW, WFS, WFSWG} {
		t.Run(proto.String(), func(t *testing.T) {
			p := testParams(2, proto)
			p.DiffSpaceLimit = 6 * 1024
			c := New(p)
			const pages = 4
			base := c.AllocPageAligned(pages * mem.PageSize)
			mustRun(t, c, func(n *Node) {
				for r := 1; r <= 8; r++ {
					// Both nodes overwrite alternating halves of each page.
					for pg := 0; pg < pages; pg++ {
						half := n.ID() * mem.PageSize / 2
						for i := 0; i < mem.PageSize/2/8; i++ {
							n.WriteU64(base+pg*mem.PageSize+half+8*i, uint64(r*100000+n.ID()*10000+pg*1000+i))
						}
					}
					n.Barrier()
					for pg := 0; pg < pages; pg++ {
						for p2 := 0; p2 < 2; p2++ {
							half := p2 * mem.PageSize / 2
							want := uint64(r*100000 + p2*10000 + pg*1000)
							if got := n.ReadU64(base + pg*mem.PageSize + half); got != want {
								t.Fatalf("round %d: node %d page %d half %d = %d, want %d", r, n.ID(), pg, p2, got, want)
							}
						}
					}
					n.Barrier()
				}
			})
			// MW and WFS+WG accumulate twins/diffs and must collect; WFS can
			// legitimately avoid diffs altogether on this pattern (ownership
			// ping-pongs via grants), which is the paper's own point about
			// its memory behaviour.
			if proto != WFS && c.GCRuns() == 0 {
				t.Errorf("%v: expected at least one GC run", proto)
			}
			for _, n := range c.nodes {
				if n.liveTwinBytes < 0 || n.liveDiffBytes < 0 {
					t.Errorf("negative live accounting: twin=%d diff=%d", n.liveTwinBytes, n.liveDiffBytes)
				}
			}
		})
	}
}

func TestDetectorCharacteristics(t *testing.T) {
	// A page written concurrently by two nodes is flagged; a page written
	// by one node only is not.
	c := New(testParams(2, MW))
	shared := c.AllocPageAligned(mem.PageSize)  // false shared
	private := c.AllocPageAligned(mem.PageSize) // node 0 only, but read by node 1
	mustRun(t, c, func(n *Node) {
		n.WriteU64(shared+8*n.ID(), 42)
		if n.ID() == 0 {
			n.WriteU64(private, 7)
		}
		n.Barrier()
		_ = n.ReadU64(private)
		n.Barrier()
	})
	ch := c.Characteristics()
	if ch.FSPages != 1 {
		t.Errorf("FSPages = %d, want 1", ch.FSPages)
	}
	if ch.SharedPages != 2 {
		t.Errorf("SharedPages = %d, want 2", ch.SharedPages)
	}
}

// TestDetectorScan pins the Table 2 page scan on a program exercising
// every per-page field (second accessor, first writer, the false-sharing
// bit, diff recording) under each protocol: pages 0-3 private to their
// writer, page 4 falsely shared, page 5 written by node 0 and read by all.
func TestDetectorScan(t *testing.T) {
	// Every diff is the low 4-byte half of one written word: the round
	// counter r+1 never reaches the upper half.
	diffs := map[Protocol]int64{MW: 19, SW: 0, WFS: 4, WFSWG: 7, HLRC: 27, Adaptive: 19}
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(4, proto))
			base := c.AllocPageAligned(6 * mem.PageSize)
			mustRun(t, c, func(n *Node) {
				for r := 0; r < 3; r++ {
					n.WriteU64(base+n.ID()*mem.PageSize, uint64(r+1))
					n.WriteU64(base+4*mem.PageSize+16*n.ID(), uint64(r+1))
					if n.ID() == 0 {
						n.WriteU64(base+5*mem.PageSize, uint64(r+1))
					}
					n.Barrier()
					_ = n.ReadU64(base + 5*mem.PageSize)
					n.Barrier()
				}
			})
			want := Characteristics{SharedPages: 2, WrittenPages: 6, FSPages: 1,
				FSPercent: 100.0 / 6, DiffsRecorded: diffs[proto]}
			if want.DiffsRecorded > 0 {
				want.AvgDiffBytes, want.MaxDiffBytes = 4, 4
			}
			if got := c.Characteristics(); got != want {
				t.Errorf("Characteristics = %+v\n                want %+v", got, want)
			}
		})
	}
}

func TestMemoryAccountingSW(t *testing.T) {
	// The SW protocol uses neither twins nor diffs.
	c := New(testParams(4, SW))
	base := c.AllocPageAligned(2 * mem.PageSize)
	mustRun(t, c, func(n *Node) {
		for r := 0; r < 5; r++ {
			n.Acquire(0)
			v := n.ReadU64(base)
			n.WriteU64(base, v+1)
			n.Release(0)
		}
		n.Barrier()
	})
	tot := c.Totals()
	if tot.TwinsCreated != 0 || tot.DiffsCreated != 0 {
		t.Errorf("SW created twins=%d diffs=%d, want 0", tot.TwinsCreated, tot.DiffsCreated)
	}
	if tot.OwnershipRequests == 0 {
		t.Errorf("SW issued no ownership requests")
	}
}

func TestWholePageProducerConsumerTraffic(t *testing.T) {
	// For whole-page producer-consumer data, SW moves pages while MW moves
	// page-sized diffs plus twin/diff overhead; SW should use less time.
	elapsedFor := func(proto Protocol) sim.Time {
		c := New(testParams(2, proto))
		base := c.AllocPageAligned(4 * mem.PageSize)
		return mustRun(t, c, func(n *Node) {
			for r := 0; r < 6; r++ {
				if n.ID() == 0 {
					for pg := 0; pg < 4; pg++ {
						for i := 0; i < mem.PageSize/8; i++ {
							n.WriteU64(base+pg*mem.PageSize+8*i, uint64(r+pg+i))
						}
					}
				}
				n.Barrier()
				if n.ID() == 1 {
					var sum uint64
					for pg := 0; pg < 4; pg++ {
						for i := 0; i < mem.PageSize/8; i += 8 {
							sum += n.ReadU64(base + pg*mem.PageSize + 8*i)
						}
					}
					_ = sum
				}
				n.Barrier()
			}
		})
	}
	sw, mw := elapsedFor(SW), elapsedFor(MW)
	if sw >= mw {
		t.Errorf("whole-page producer-consumer: SW (%v) should beat MW (%v)", sw, mw)
	}
}

func TestClusterGuards(t *testing.T) {
	c := New(testParams(2, MW))
	base := c.Alloc(16)
	if base != 0 {
		t.Fatalf("first alloc at %d", base)
	}
	a2 := c.Alloc(1)
	if a2%8 != 0 {
		t.Fatalf("alloc not aligned: %d", a2)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for oversized alloc")
			}
		}()
		c.Alloc(1 << 30)
	}()
	_, err := c.Run(func(n *Node) {
		defer func() { recover() }()
		n.ReadU64(1 << 28) // out of range: must panic inside, recovered here
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if s := fmt.Sprint(MW.String(), SW.String(), WFS.String(), WFSWG.String(), Protocol(99).String()); s == "" {
		t.Fatal("empty protocol names")
	}
}

// TestAllocAfterRunPanics: per-page state is sized by the allocation when
// Run starts, so a later allocation would hand out addresses no node has
// state for. Both entry points must refuse loudly.
func TestAllocAfterRunPanics(t *testing.T) {
	c := New(testParams(2, MW))
	c.Alloc(64)
	mustRun(t, c, func(n *Node) { n.Barrier() })
	for name, alloc := range map[string]func(){
		"Alloc":            func() { c.Alloc(8) },
		"AllocPageAligned": func() { c.AllocPageAligned(8) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "dsm: Alloc after Run") {
					t.Errorf("%s after Run: recovered %q, want a \"dsm: Alloc after Run\" panic", name, msg)
				}
			}()
			alloc()
		}()
	}
	if got := c.allocated; got != 64 {
		t.Errorf("segment grew to %d bytes after Run", got)
	}
}
