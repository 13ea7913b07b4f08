package core

import (
	"testing"

	"adsm/internal/mem"
	"adsm/internal/sim"
)

// TestServeSharesFrame: a page reply carries the server's frame itself,
// which both nodes then hold, and the server's next store moves it onto a
// private copy, leaving the reader's bytes as they were served. Under MW
// the store faults and twins the page; under SW the owner's copy stays
// writable across the serve, so the plain write path (per word, or a
// span) must copy it.
func TestServeSharesFrame(t *testing.T) {
	const pat, later = 0x5151515151515151, 0x7777
	for _, tc := range []struct {
		name  string
		proto Protocol
		span  bool
	}{
		{"MW", MW, false},
		{"SW", SW, false},
		{"SW/span", SW, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(testParams(2, tc.proto))
			base := c.AllocPageAligned(mem.PageSize)
			pg := base >> mem.PageShift
			server, reader := c.nodes[0], c.nodes[1]
			mustRun(t, c, func(n *Node) {
				if n.ID() == 0 {
					for off := 0; off < mem.PageSize; off += 8 {
						n.WriteU64(base+off, pat)
					}
				}
				n.Barrier()
				if n.ID() == 1 {
					n.ReadU64(base)
					sps, rps := server.pages[pg], reader.pages[pg]
					if &rps.data[0] != &sps.data[0] || !sps.dataShared || !rps.dataShared {
						t.Fatalf("the reply is not the server's frame, shared by both")
					}
				}
				n.Barrier()
				if n.ID() == 0 {
					served := reader.pages[pg].data
					if tc.span {
						n.AccessRange(base, 16, 8, false, true, func(_ int, b []byte) { mem.StoreUint64(b, 0, later) })
					} else {
						n.WriteU64(base, later)
					}
					ps := n.pages[pg]
					if &ps.data[0] == &served[0] || ps.dataShared {
						t.Fatalf("the server stored into the frame it served")
					}
					if got := mem.LoadUint64(ps.data, 0); got != later {
						t.Fatalf("server's copy reads %#x, want %#x", got, later)
					}
					for off := 0; off < mem.PageSize; off += 8 {
						if got := mem.LoadUint64(served, off); got != pat {
							t.Fatalf("reader's copy at %d = %#x, want the served %#x", off, got, uint64(pat))
						}
					}
				}
				n.Barrier()
			})
		})
	}
}

// TestZeroFrameShared: every initial copy of a fresh cluster is the one
// zero frame, and writing one page moves that page alone onto a private
// copy, leaving the frame and every other page zero.
func TestZeroFrameShared(t *testing.T) {
	const pages = 4
	for _, proto := range allProtocols {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(2, proto))
			base := c.AllocPageAligned(pages * mem.PageSize)
			first := base >> mem.PageShift
			mustRun(t, c, func(n *Node) {
				if n.ID() == 0 {
					held := 0
					for _, nd := range c.nodes {
						for _, ps := range nd.pages {
							if ps.data == nil {
								continue
							}
							held++
							if &ps.data[0] != &c.zero[0] || !ps.dataShared {
								t.Fatalf("node %d starts a page on its own buffer", nd.id)
							}
						}
					}
					if held < pages {
						t.Fatalf("%d initial copies for %d pages", held, pages)
					}
					n.WriteU64(base+8, 9)
					if ps := n.pages[first]; &ps.data[0] == &c.zero[0] {
						t.Fatal("the write went into the zero frame")
					}
					for pg := 1; pg < pages; pg++ {
						if got := n.ReadU64(base + pg*mem.PageSize + 8); got != 0 {
							t.Fatalf("page %d reads %#x after a write to page 0", pg, got)
						}
					}
					if n.ReadU64(base+8) != 9 {
						t.Fatal("the write was lost")
					}
				}
				n.Barrier()
			})
			for off := 0; off < mem.PageSize; off += 8 {
				if mem.LoadUint64(c.zero, off) != 0 {
					t.Fatalf("zero frame written at %d", off)
				}
			}
		})
	}
}

// TestPageFetchAllocatesNoFrame: a steady-state page fetch, the serve and
// the install, allocates no page buffer. The reader adopts the served
// frame; the one allocation is the reply's applied vector.
func TestPageFetchAllocatesNoFrame(t *testing.T) {
	c := New(testParams(2, MW))
	base := c.AllocPageAligned(mem.PageSize)
	pg := base >> mem.PageShift
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			n.WriteU64(base, 7)
		}
		n.Barrier()
		if n.ID() == 1 {
			n.ReadU64(base) // the first fetch
		}
	})
	server, reader := c.nodes[0], c.nodes[1]
	sps, rps := server.pages[pg], reader.pages[pg]
	allocs := testing.AllocsPerRun(100, func() {
		data, applied := server.snapshotPage(reader.id, pg, sps)
		reader.installPage(pg, rps, data, applied)
	})
	if allocs > 1 {
		t.Fatalf("a page fetch makes %v allocations, want at most 1 (the applied vector)", allocs)
	}
	if &rps.data[0] != &sps.data[0] || mem.LoadUint64(rps.data, 0) != 7 {
		t.Fatal("the reader does not hold the served frame")
	}
}

// TestSpanWriteServesCopy: while a write span's callback holds a page, a
// serve of that page (a handler running while the callback blocks on
// another page's fault) replies with a copy and leaves the frame private.
func TestSpanWriteServesCopy(t *testing.T) {
	c := New(testParams(1, SW))
	base := c.AllocPageAligned(mem.PageSize)
	pg := base >> mem.PageShift
	mustRun(t, c, func(n *Node) {
		n.AccessRange(base, 16, 8, false, true, func(_ int, b []byte) {
			mem.StoreUint64(b, 0, 1)
			ps := n.pages[pg]
			served, _ := n.serveFrame(ps)
			mem.StoreUint64(b, 8, 2)
			if &served[0] == &ps.data[0] || ps.dataShared {
				t.Fatal("a serve during a write span handed out the frame being written")
			}
			if mem.LoadUint64(served, 0) != 1 || mem.LoadUint64(served, 8) != 0 {
				t.Fatal("the served copy is not the page as it stood")
			}
		})
		if ps := n.pages[pg]; ps.spanWrite {
			t.Fatal("the span left its page marked")
		}
	})
}

// TestHomeFlushCopiesSharedTwin: an HLRC home writing a page twins it on
// the zero frame it started with, and a peer's flush that reaches it
// mid-interval applies to that twin too: the twin moves onto a private
// copy first, so the zero frame stays zero and both writes survive.
func TestHomeFlushCopiesSharedTwin(t *testing.T) {
	c := New(testParams(2, HLRC))
	base := c.AllocPageAligned(mem.PageSize)
	pg := base >> mem.PageShift
	if hm := filled(HomeStatic, c.usedPages(), 2)[pg]; hm != 0 {
		t.Fatalf("page %d's home is %d, want node 0", pg, hm)
	}
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			n.WriteU64(base, 1)
			if ps := n.pages[pg]; !ps.twinShared || &ps.twin[0] != &c.zero[0] {
				t.Fatal("the home's twin is not the zero frame it started on")
			}
			n.Compute(10 * sim.Millisecond) // the peer's flush arrives meanwhile
			if ps := n.pages[pg]; ps.twinShared {
				t.Fatal("the flush applied to the home's twin without copying it")
			}
		} else {
			n.Compute(sim.Millisecond)
			n.Acquire(0)
			n.WriteU64(base+8, 2)
			n.Release(0)
		}
		n.Barrier()
		if a, b := n.ReadU64(base), n.ReadU64(base+8); a != 1 || b != 2 {
			t.Errorf("node %d reads %d, %d; want 1, 2", n.ID(), a, b)
		}
	})
}
