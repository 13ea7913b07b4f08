package core

import (
	"strings"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// lateReleaseRT delays node `to`'s barrier releases by d: the manager's
// handler sees the arrival as usual and its Reply leaves d late. Every
// other message moves as the wrapped runtime moves it.
type lateReleaseRT struct {
	transport.Runtime
	to int
	d  transport.Time
}

func (r lateReleaseRT) Register(id int, h transport.Handler) {
	if id != 0 {
		r.Runtime.Register(id, h)
		return
	}
	r.Runtime.Register(id, func(c transport.Call, from int, m transport.Msg) {
		if _, ok := m.(barArrive); ok && from == r.to {
			c = lateCall{c, r.d}
		}
		h(c, from, m)
	})
}

type lateCall struct {
	transport.Call
	d transport.Time
}

func (c lateCall) Reply(m transport.Msg) { c.Call.ReplyAfter(c.d, m) }

// TestHLRCSwitchQuiescent pins the quiescent round that follows a switch
// to HLRC. Three nodes write one page in turn under a lock, so the last
// of them ends the epoch with every write applied and a valid copy; the
// barrier manager moves the page to HLRC (wire profile: three writers),
// and the release reaches the page's home 20 ms late. The last writer
// writes again at once and its next barrier flushes that diff to the
// home. Without the quiescent round the flush lands while the home still
// runs the page under MW with the other writers' notices undrained, and
// its vector clock would mark them applied; the home's flush check
// panics instead. With the round, the writer stays parked until the home
// has drained, and every copy ends exact.
func TestHLRCSwitchQuiescent(t *testing.T) {
	const procs, home = 4, 1
	p := testParams(procs, Adaptive)
	p.Cost = WireProfile()
	p.Runtime = func(p Params) transport.Runtime {
		rt := transport.DefaultRuntime(p.Procs, p.Net, p.EventLimit)
		return lateReleaseRT{Runtime: rt, to: home, d: 20 * transport.Millisecond}
	}
	c := New(p)
	base := c.AllocPageAligned(procs * mem.PageSize)
	pg := home // static homes: page pg lives at pg % procs
	addr := base + pg*mem.PageSize
	if got := filled(HomeStatic, c.usedPages(), procs)[pg]; got != home {
		t.Fatalf("page %d homed at %d, want %d", pg, got, home)
	}
	writers := []int{0, 2, 3} // in lock order; 3 ends with a valid copy
	want := make([]uint64, procs)
	for _, w := range writers {
		want[w] = uint64(100 + w)
	}
	last := writers[len(writers)-1]
	want[last] = 999
	mustRun(t, c, func(n *Node) {
		for turn, w := range writers {
			if w == n.ID() {
				n.Proc().Advance(transport.Time(turn) * 5 * transport.Millisecond)
				n.Acquire(0)
				n.WriteU64(addr+8*w, uint64(100+w))
				n.Release(0)
			}
		}
		n.Barrier() // the manager switches the page to HLRC here
		if n.ID() == last {
			n.WriteU64(addr+8*last, 999)
		}
		n.Barrier() // the last writer's flush
		for i, v := range want {
			if got := n.ReadU64(addr + 8*i); got != v {
				t.Errorf("node %d: word %d = %d, want %d", n.ID(), i, got, v)
			}
		}
		n.Barrier()
	})
	ps := c.nodes[home].pages[pg]
	if ps.proto != HLRC {
		t.Fatalf("page %d runs %v at its home, want HLRC", pg, ps.proto)
	}
	for i, v := range want {
		if got := mem.LoadUint64(ps.data, 8*i); got != v {
			t.Errorf("home copy: word %d = %d, want %d", i, got, v)
		}
	}
	if got := c.Totals().SwitchToHLRC; got != procs {
		t.Errorf("SwitchToHLRC = %d, want one per node (%d)", got, procs)
	}
}

// TestHLRCFlushBeforeSwitchPanics: a flush for a page its home does not
// run under HLRC is a protocol bug, reported as one.
func TestHLRCFlushBeforeSwitchPanics(t *testing.T) {
	c := New(testParams(2, MW))
	c.AllocPageAligned(mem.PageSize)
	c.Run(func(n *Node) {}) // builds the pages
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "before it switched page 0") {
			t.Fatalf("recovered %v, want the flush-before-switch panic", r)
		}
	}()
	c.nodes[0].serveHLRCFlush(nil, 1, hlrcFlush{Diffs: []*mem.Diff{{Page: 0}}})
}

// The serialized-writer rule (CostProfile.SerialWFS), on the simulator
// with the cost profile set explicitly.

// takeTurns has the nodes of order rewrite every word of the page at
// addr in turn under lock 0, each adding w+1 to every word, and appends
// each writer to *got as it takes the lock (the simulator runs one body
// at a time). Then every node meets at a barrier.
func takeTurns(n *Node, addr int, order []int, got *[]int) {
	for turn, w := range order {
		if w != n.ID() {
			continue
		}
		n.Proc().Advance(transport.Time(turn) * 5 * transport.Millisecond)
		n.Acquire(0)
		*got = append(*got, w)
		for off := 0; off < mem.PageSize; off += 8 {
			n.WriteU64(addr+off, n.ReadU64(addr+off)+uint64(w+1))
		}
		n.Release(0)
	}
	n.Barrier()
}

// writeHalves has nodes 0 and 1 each add 100*(id+1) to every word of
// their own half of the page at addr, in the same epoch and under no
// common lock, then every node meets at a barrier.
func writeHalves(n *Node, addr int) {
	if id := n.ID(); id < 2 {
		half := mem.PageSize / 2
		for off := id * half; off < (id+1)*half; off += 8 {
			n.WriteU64(addr+off, n.ReadU64(addr+off)+uint64(100*(id+1)))
		}
	}
	n.Barrier()
}

// checkPage has every node read back the page at addr against want.
func checkPage(t *testing.T, n *Node, addr int, want func(off int) uint64) {
	for off := 0; off < mem.PageSize; off += 8 {
		if got := n.ReadU64(addr + off); got != want(off) {
			t.Errorf("node %d: word %d = %d, want %d", n.ID(), off/8, got, want(off))
			return
		}
	}
}

// pageProto returns the protocol every node runs page pg under, failing
// the test when two nodes disagree.
func pageProto(t *testing.T, c *Cluster, pg int) Protocol {
	t.Helper()
	p := c.nodes[0].pages[pg].proto
	for _, n := range c.nodes[1:] {
		if q := n.pages[pg].proto; q != p {
			t.Fatalf("page %d: node 0 runs %v, node %d runs %v", pg, p, n.id, q)
		}
	}
	return p
}

var turnOrder = []int{2, 0, 3, 1}

// turnsSum is what each word holds after the nodes of turnOrder took
// `epochs` turns each.
func turnsSum(epochs int) uint64 {
	var s uint64
	for _, w := range turnOrder {
		s += uint64(w + 1)
	}
	return s * uint64(epochs)
}

// TestSerialWritersGoToWFS: four nodes rewrite one page in turn under one
// lock. Under the wire profile the barrier manager hands the page to
// plain WFS, owned by the last writer of the epoch; the next epoch's
// writers take it by ownership requests without twinning it, and every
// copy ends exact.
func TestSerialWritersGoToWFS(t *testing.T) {
	const procs = 4
	p := testParams(procs, Adaptive)
	p.Cost = WireProfile()
	c := New(p)
	addr := c.AllocPageAligned(mem.PageSize)
	var order []int
	ownerAfterSwitch := -1
	mustRun(t, c, func(n *Node) {
		takeTurns(n, addr, turnOrder, &order) // the manager switches the page here
		if n.pages[0].owner {
			ownerAfterSwitch = n.ID()
		}
		n.Barrier()
		takeTurns(n, addr, turnOrder, &order)
		checkPage(t, n, addr, func(int) uint64 { return turnsSum(2) })
		n.Barrier()
	})
	if got := pageProto(t, c, 0); got != WFS {
		t.Fatalf("page runs %v, want WFS", got)
	}
	if last := order[len(turnOrder)-1]; ownerAfterSwitch != last {
		t.Errorf("owner after the switch = %d, want the epoch's last writer %d (lock order %v)",
			ownerAfterSwitch, last, order[:len(turnOrder)])
	}
	tot := c.Totals()
	if tot.SwitchToSW != procs || tot.PolicySwitches != procs {
		t.Errorf("switches: toSW=%d total=%d, want one WFS switch per node (%d)",
			tot.SwitchToSW, tot.PolicySwitches, procs)
	}
	if tot.TwinsCreated != int64(len(turnOrder)) {
		t.Errorf("twins = %d, want %d (the MW epoch's only)", tot.TwinsCreated, len(turnOrder))
	}
}

// TestSerialWritersPaperProfileGoToHLRC: the same program under the
// paper's profile, where the rule is off, still sends the page to HLRC.
func TestSerialWritersPaperProfileGoToHLRC(t *testing.T) {
	const procs = 4
	p := testParams(procs, Adaptive)
	p.Cost = PaperProfile()
	c := New(p)
	addr := c.AllocPageAligned(mem.PageSize)
	var order []int
	mustRun(t, c, func(n *Node) {
		takeTurns(n, addr, turnOrder, &order)
		takeTurns(n, addr, turnOrder, &order)
		checkPage(t, n, addr, func(int) uint64 { return turnsSum(2) })
		n.Barrier()
	})
	if got := pageProto(t, c, 0); got != HLRC {
		t.Fatalf("page runs %v, want HLRC", got)
	}
	if got := c.Totals().SwitchToSW; got != 0 {
		t.Errorf("SwitchToSW = %d, want 0", got)
	}
}

// TestConcurrentHalvesStayMW: two nodes write disjoint halves of one page
// in the same epoch under no common lock. Their intervals are concurrent,
// so the serialized-writer rule never fires.
func TestConcurrentHalvesStayMW(t *testing.T) {
	p := testParams(4, Adaptive)
	p.Cost = WireProfile()
	c := New(p)
	addr := c.AllocPageAligned(mem.PageSize)
	const epochs = 3
	mustRun(t, c, func(n *Node) {
		for e := 0; e < epochs; e++ {
			writeHalves(n, addr)
		}
		checkPage(t, n, addr, func(off int) uint64 {
			return epochs * uint64(100*(1+off/(mem.PageSize/2)))
		})
		n.Barrier()
	})
	if got := pageProto(t, c, 0); got != MW {
		t.Fatalf("page runs %v, want MW", got)
	}
	if got := c.Totals().PolicySwitches; got != 0 {
		t.Errorf("PolicySwitches = %d, want 0", got)
	}
}

// TestSerialWFSDemotesOnConcurrentWriters: a page the rule moved to WFS
// keeps it while its writers take turns and goes back to MW on the first
// epoch whose writers are concurrent (two of them: fewer than the wire
// profile's HLRC writers).
func TestSerialWFSDemotesOnConcurrentWriters(t *testing.T) {
	const procs = 4
	p := testParams(procs, Adaptive)
	p.Cost = WireProfile()
	c := New(p)
	addr := c.AllocPageAligned(mem.PageSize)
	var order []int
	var afterTurns Protocol
	mustRun(t, c, func(n *Node) {
		takeTurns(n, addr, turnOrder, &order)
		takeTurns(n, addr, turnOrder, &order)
		if n.ID() == 0 {
			afterTurns = n.pages[0].proto
		}
		n.Barrier()
		writeHalves(n, addr)
		checkPage(t, n, addr, func(off int) uint64 {
			return turnsSum(2) + uint64(100*(1+off/(mem.PageSize/2)))
		})
		n.Barrier()
	})
	if afterTurns != WFS {
		t.Fatalf("page ran %v after two epochs of turns, want WFS", afterTurns)
	}
	if got := pageProto(t, c, 0); got != MW {
		t.Fatalf("page runs %v after concurrent writers, want MW", got)
	}
	tot := c.Totals()
	if tot.SwitchToSW != procs || tot.SwitchToMW != procs {
		t.Errorf("switches: toSW=%d toMW=%d, want %d each", tot.SwitchToSW, tot.SwitchToMW, procs)
	}
}

// TestChainLast: intervals that a lock orders form a chain whatever order
// they arrive in; two concurrent ones do not.
func TestChainLast(t *testing.T) {
	ad := &adaptState{}
	iv := func(proc int32, v ...int32) int32 {
		ad.chainProcs = append(ad.chainProcs, proc)
		ad.chainVCs = append(ad.chainVCs, v...)
		return int32(len(ad.chainProcs) - 1)
	}
	a, b, c := iv(0, 1, 0, 0), iv(1, 1, 1, 0), iv(2, 1, 1, 1)
	if got := ad.chainLast([]int32{c, a, b}, 3); got != 2 {
		t.Errorf("chain: last = %d, want proc 2", got)
	}
	if got := ad.chainLast([]int32{a, iv(1, 0, 1, 0)}, 3); got != -1 {
		t.Errorf("concurrent: last = %d, want -1", got)
	}
	if got := ad.chainLast([]int32{a, iv(1, 0, 2, 0)}, 3); got != -1 {
		t.Errorf("concurrent, unequal sums: last = %d, want -1", got)
	}
}
