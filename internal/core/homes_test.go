package core

import (
	"slices"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

func homeTestParams(procs int, proto Protocol, home Home) Params {
	p := testParams(procs, proto)
	p.Home = home
	return p
}

func TestHomeRegistryParse(t *testing.T) {
	cases := map[string]Home{
		"static":      HomeStatic,
		"first-touch": HomeFirstTouch,
		"FIRSTTOUCH":  HomeFirstTouch,
		"ft":          HomeFirstTouch,
		"block":       HomeBlock,
		"Blocked":     HomeBlock,
	}
	for name, want := range cases {
		got, err := ParseHome(name)
		if err != nil || got != want {
			t.Errorf("ParseHome(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseHome("bogus"); err == nil {
		t.Errorf("ParseHome(bogus) must fail")
	}
}

// filled returns the home table policy h fills for used pages on procs
// nodes.
func filled(h Home, used, procs int) []int32 {
	homes := make([]int32, used)
	h.fill(homes, procs)
	return homes
}

func TestStaticHomesLayout(t *testing.T) {
	for pg, got := range filled(HomeStatic, 8, 4) {
		if int(got) != pg%4 {
			t.Errorf("static home of page %d = %d, want %d", pg, got, pg%4)
		}
	}
}

func TestBlockHomesBands(t *testing.T) {
	if got, want := filled(HomeBlock, 8, 4), []int32{0, 0, 1, 1, 2, 2, 3, 3}; !slices.Equal(got, want) {
		t.Errorf("block homes of 8 pages = %v, want %v", got, want)
	}
	// Uneven split: 7 used pages over 4 procs -> bands of 2,2,2,1.
	if got, want := filled(HomeBlock, 7, 4), []int32{0, 0, 1, 1, 2, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("block homes of 7 pages = %v, want %v", got, want)
	}
}

// TestFirstTouchConcurrentAgreement pins the agreement protocol: when two
// nodes fault the same page with no synchronization between them, node 0
// serializes the binding requests and both nodes converge on the same
// home, which then serves all fetches for the page.
func TestFirstTouchConcurrentAgreement(t *testing.T) {
	const procs = 4
	c := New(homeTestParams(procs, HLRC, HomeFirstTouch))
	base := c.AllocPageAligned(8 * mem.PageSize)
	pageAt := func(pg int) int { return base/mem.PageSize + pg }
	mustRun(t, c, func(n *Node) {
		// Nodes 1 and 2 race to first-touch page 1.
		if n.ID() == 1 || n.ID() == 2 {
			_ = n.ReadU64(base + 1*mem.PageSize)
		}
		// Every node first-touches "its own" page (4 + id).
		n.WriteU64(base+(4+n.ID())*mem.PageSize, uint64(100+n.ID()))
		n.Barrier()
		// Everyone reads everything: the agreed homes must serve coherent
		// copies.
		for p := 0; p < procs; p++ {
			if got := n.ReadU64(base + (4+p)*mem.PageSize); got != uint64(100+p) {
				t.Errorf("node %d reads page of proc %d = %d, want %d", n.ID(), p, got, 100+p)
			}
		}
		n.Barrier()
	})

	// Node 0's table is the directory. The raced page is bound to one of
	// the two racers, and every node that bound a page agrees with node 0.
	dir := c.nodes[homeDirNode].homes
	if h := dir[pageAt(1)]; h != 1 && h != 2 {
		t.Errorf("raced page bound to %d, want one of the racers (1 or 2)", h)
	}
	for _, n := range c.nodes {
		for pg, hm := range n.homes {
			if hm >= 0 && hm != dir[pg] {
				t.Errorf("node %d binds page %d to %d, node 0 to %d", n.id, pg, hm, dir[pg])
			}
		}
	}
	// Each node's private page is homed at its first (and only) toucher.
	for p := 0; p < procs; p++ {
		if got := dir[pageAt(4+p)]; int(got) != p {
			t.Errorf("page first-touched by node %d homed at %d", p, got)
		}
	}
}

// ackCall records the reply a handler sends.
type ackCall struct {
	transport.Call
	reply transport.Msg
}

func (c *ackCall) Reply(m transport.Msg)                        { c.reply = m }
func (c *ackCall) ReplyAfter(_ transport.Time, m transport.Msg) { c.reply = m }

// TestFlushBindsUnboundHome: flushes go only to homes, so an HLRC flush
// that reaches a node before it has bound the page (its first-touch bind
// reply still in flight, or a dsmnode endpoint that never hosts the
// directory) binds that node as the home and applies the diff from the
// zero page. A flush for a page bound elsewhere still panics.
func TestFlushBindsUnboundHome(t *testing.T) {
	const procs, home, writer = 3, 2, 1
	c := New(homeTestParams(procs, HLRC, HomeFirstTouch))
	c.AllocPageAligned(2 * mem.PageSize)
	n := c.nodes[home]
	n.buildPages(c.usedPages())
	for pg, ps := range n.pages {
		c.policy.InitPage(n, pg, ps)
	}
	const pg = 1
	if n.homes[pg] != -1 || n.pages[pg].data != nil {
		t.Fatalf("page %d starts bound to %d with a copy %v", pg, n.homes[pg], n.pages[pg].data != nil)
	}
	cur := mem.NewPage()
	mem.StoreUint64(cur, 8, 42)
	flushVC := vc.VC{0, 1, 0}
	call := &ackCall{}
	n.handle(call, writer, hlrcFlush{VC: flushVC, Diffs: []*mem.Diff{mem.MakeDiff(pg, mem.NewPage(), cur)}})

	if _, ok := call.reply.(hlrcAck); !ok {
		t.Fatalf("flush answered %T, want hlrcAck", call.reply)
	}
	if n.homes[pg] != home {
		t.Errorf("flush left page %d bound to %d, want the receiving node %d", pg, n.homes[pg], home)
	}
	ps := n.pages[pg]
	if ps.data == nil || mem.LoadUint64(ps.data, 8) != 42 {
		t.Fatalf("flushed diff not applied to the new home's copy")
	}
	if !flushVC.Leq(ps.applied) {
		t.Errorf("applied %v does not cover the flush %v", ps.applied, flushVC)
	}

	n.homes[0] = writer
	defer func() {
		if recover() == nil {
			t.Errorf("a flush for a page homed at node %d was applied at node %d", writer, home)
		}
	}()
	n.handle(&ackCall{}, writer, hlrcFlush{VC: flushVC, Diffs: []*mem.Diff{mem.MakeDiff(0, mem.NewPage(), cur)}})
}

// TestHLRCHomePoliciesCoherent runs the false-sharing flush workload (the
// hardest HLRC pattern: concurrent writers of one page merging at the
// home) under every home policy.
func TestHLRCHomePoliciesCoherent(t *testing.T) {
	for _, home := range Homes() {
		t.Run(home.String(), func(t *testing.T) {
			const procs = 4
			c := New(homeTestParams(procs, HLRC, home))
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
			// Diffs never accumulate regardless of where the homes are.
			for _, n := range c.nodes {
				if n.liveDiffs != 0 {
					t.Errorf("node %d still holds %d live diffs", n.id, n.liveDiffs)
				}
			}
		})
	}
}

// TestSWHomePoliciesRoute runs the pure single-writer protocol (which
// uses homes only to route ownership requests) under every home policy.
func TestSWHomePoliciesRoute(t *testing.T) {
	for _, home := range Homes() {
		t.Run(home.String(), func(t *testing.T) {
			const procs, rounds = 4, 8
			c := New(homeTestParams(procs, SW, home))
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
		})
	}
}

// TestDetectorNoteWriteSnapshotsVC: the false-sharing bit compares a
// foreign write notice with the node's own last write notice of the page.
// That notice's interval vector is the interval's own copy (closeInterval),
// so no later in-place Join or Tick of the node's clock can flip the check.
func TestDetectorNoteWriteSnapshotsVC(t *testing.T) {
	c := New(testParams(3, MW))
	c.AllocPageAligned(mem.PageSize)
	for _, n := range c.nodes {
		n.buildPages(c.usedPages())
	}
	n := c.Node(0)
	ps := n.pages[0]
	ps.myLastWN = n.addInterval(0, vc.VC{1, 0, 0}, wnRow{page: 0})[0]
	// Proc 1's write at <1,1,0> is ordered after node 0's <1,0,0>: no
	// false sharing.
	n.ingestWN(n.addInterval(1, vc.VC{1, 1, 0}, wnRow{page: 0})[0])
	if ps.fs {
		t.Errorf("a foreign write ordered after the node's own set the false-sharing bit")
	}
	ch := c.Characteristics()
	if ch.FSPages != 0 {
		t.Errorf("FSPages = %d, want 0", ch.FSPages)
	}
	// Proc 2's write at <0,0,1> is concurrent with it.
	n.ingestWN(n.addInterval(2, vc.VC{0, 0, 1}, wnRow{page: 0})[0])
	if got := c.Characteristics().FSPages; got != 1 {
		t.Errorf("after a concurrent foreign write FSPages = %d, want 1", got)
	}
}
