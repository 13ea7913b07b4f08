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
	if got := c.homeOf(pg); got != home {
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
