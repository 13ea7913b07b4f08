package core

import (
	"strings"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/sim"
	"adsm/internal/vc"
)

// Every move checks its row of the page-state table in test builds.
func init() { checkPageStates = true }

// TestPageStateTable pins checkPage to the table in pagestate.go: each
// legal row passes, and each combination the table forbids panics with
// the reason.
func TestPageStateTable(t *testing.T) {
	const self = 1
	owned := func(ps *pageState) { ps.owner, ps.perceivedOwner, ps.perceivedVersion = true, self, ps.version }
	twin := func(ps *pageState) { ps.twin = mem.NewPage() }
	legal := map[string]func(ps *pageState){
		"SW owner writing":            func(ps *pageState) { owned(ps); ps.wroteSW, ps.status = true, pageReadWrite },
		"SW owner, drop deferred":     func(ps *pageState) { owned(ps); ps.wroteSW, ps.dropOwnership = true, true },
		"SW owner, undiffed twin":     func(ps *pageState) { owned(ps); twin(ps); ps.undiffed = wnRef{ts: 1} },
		"SW non-owner writing a twin": func(ps *pageState) { twin(ps); ps.dirtyMW, ps.status = true, pageReadWrite },
		"MW last owner, undiffed":     func(ps *pageState) { ps.mode, ps.wasLast = modeMW, true; twin(ps); ps.undiffed = wnRef{ts: 1} },
		"MW writing a twin":           func(ps *pageState) { ps.mode = modeMW; twin(ps); ps.dirtyMW, ps.status = true, pageReadWrite },
		"MW read-only":                func(ps *pageState) { ps.mode, ps.status = modeMW, pageReadOnly },
	}
	illegal := map[string]func(ps *pageState){
		"owner and last owner":                   func(ps *pageState) { owned(ps); ps.wasLast = true },
		"owner outside SW":                       func(ps *pageState) { owned(ps); ps.mode = modeMW },
		"last owner outside MW":                  func(ps *pageState) { ps.wasLast = true },
		"drop without unpublished writes":        func(ps *pageState) { owned(ps); ps.dropOwnership = true },
		"owner writes without ownership":         func(ps *pageState) { ps.wroteSW = true },
		"owner routes elsewhere":                 func(ps *pageState) { owned(ps); ps.perceivedOwner = 0 },
		"authority without a copy":               func(ps *pageState) { owned(ps); ps.data = nil },
		"write record without a twin":            func(ps *pageState) { ps.dirtyMW = true },
		"open and undiffed interval on one twin": func(ps *pageState) { twin(ps); ps.dirtyMW, ps.undiffed = true, wnRef{ts: 1} },
		"writable with no write record":          func(ps *pageState) { ps.status = pageReadWrite },
	}
	n := &Node{id: self}
	fresh := func(set func(ps *pageState)) *pageState {
		ps := &pageState{data: mem.NewPage(), status: pageReadOnly, version: 3}
		set(ps)
		return ps
	}
	for name, set := range legal {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: %v", name, r)
				}
			}()
			n.checkPage(0, fresh(set))
		}()
	}
	for why, set := range illegal {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "("+why+")") {
					t.Errorf("%s: checkPage panicked with %q", why, r)
				}
			}()
			n.checkPage(0, fresh(set))
		}()
	}
}

// TestTwinDiffedBeforeRebase is the row that lost TSP's best tour on the
// wire: a node's closed MW interval is still undiffed when a whole-page
// copy comes back to it that holds those writes and a later overwrite of
// the same word (a grant carried them out, the grantee wrote on). The
// install must keep the later value, and the interval's diff its own.
func TestTwinDiffedBeforeRebase(t *testing.T) {
	c := New(testParams(2, WFSWG))
	c.AllocPageAligned(mem.PageSize)
	n := c.Node(0)
	n.buildPages(c.usedPages())
	ps := n.pages[0]
	ps.mode, ps.data = modeMW, mem.NewPage()
	ps.twin = mem.Twin(ps.data)
	mem.StoreUint64(ps.data, 8, 42)
	wn := n.addInterval(0, vc.VC{1, 0}, wnRow{page: 0})[0]
	ps.undiffed = wn
	ps.applied.Join(n.ivc(wn))

	back := mem.NewPage()
	mem.StoreUint64(back, 8, 7) // node 1 overwrote it after our interval
	n.installPage(0, ps, back, []int32{1, 1})
	if got := mem.LoadUint64(ps.data, 8); got != 7 {
		t.Fatalf("after the install the word reads %d, want node 1's later 7", got)
	}

	d, _, ok := n.heldDiff(0, ps, wn.key(0))
	if !ok {
		t.Fatal("the undiffed notice's diff is gone")
	}
	reader := mem.NewPage()
	d.Apply(reader)
	if got := mem.LoadUint64(reader, 8); got != 42 {
		t.Fatalf("a reader applying the diff sees %d, want 42", got)
	}
}

// TestMovesRecheckAuthority: the moves that follow a blocking step check
// their precondition when they are applied. A last owner whose authority
// was granted away does not reacquire, and a page whose ownership left
// is not made writable.
func TestMovesRecheckAuthority(t *testing.T) {
	c := New(testParams(2, WFS))
	c.AllocPageAligned(mem.PageSize)
	n := c.Node(1)
	n.buildPages(c.usedPages())
	ps := n.pages[0]
	ps.mode, ps.data, ps.status, ps.perceivedOwner, ps.version = modeMW, mem.NewPage(), pageReadOnly, 0, 4
	if n.reacquire(0, ps) || ps.owner || ps.version != 4 {
		t.Errorf("reacquire without the authority: owner=%v version=%d", ps.owner, ps.version)
	}
	if n.ownWrite(0, ps) || ps.status != pageReadOnly {
		t.Errorf("ownWrite without ownership: status=%d", ps.status)
	}
}

// TestOwnerWriteRechecksAfterValidate sweeps a schedule in which an owner
// write-faults on a page with a pending diff and, while validate fetches
// it, a peer whose ownership request names the owner's version takes the
// page away. The owner's write must then fault as a non-owner's: made
// writable anyway, it was recorded nowhere and never published.
func TestOwnerWriteRechecksAfterValidate(t *testing.T) {
	for d := 0; d < 1500; d += 10 {
		c := New(testParams(4, WFS))
		base := c.AllocPageAligned(mem.PageSize)
		lost := false
		mustRun(t, c, func(n *Node) {
			switch n.ID() {
			case 1: // owner at version 1, then merges node 2's diff
				n.Acquire(1)
				n.WriteU64(base+8, 1)
				n.Release(1)
				n.Compute(10 * sim.Millisecond)
				n.Acquire(2)
				n.WriteU64(base+64, 11)
				n.Release(2)
			case 2: // refused by node 0, so it writes under a twin
				n.Compute(3 * sim.Millisecond)
				n.Acquire(2)
				n.WriteU64(base+16, 2)
				n.Release(2)
			case 3: // learns node 1's version, then asks it for the page
				n.Compute(5 * sim.Millisecond)
				n.Acquire(1)
				n.Release(1)
				n.Compute(5*sim.Millisecond + sim.Time(d)*sim.Microsecond)
				n.WriteU64(base+128, 33)
			}
			n.Barrier()
			if n.ReadU64(base+8) != 1 || n.ReadU64(base+16) != 2 ||
				n.ReadU64(base+64) != 11 || n.ReadU64(base+128) != 33 {
				lost = true
			}
		})
		if lost {
			t.Fatalf("peer's request %d us into the window: a write was lost", d)
		}
	}
}

// TestGrantSettleRechecksOwnership sweeps a schedule in which node 0, the
// barrier manager, is granted a page while peers' barrier arrivals bring it
// diffs to merge, and the grantor's own stale-version request is refused
// while node 0 settles them: the refusal drops node 0's ownership at
// once. Node 0's write must then take the multiple-writer path: made
// writable as an owner, it was recorded nowhere and never published.
func TestGrantSettleRechecksOwnership(t *testing.T) {
	us := func(x int) sim.Time { return sim.Time(x) * sim.Microsecond }
	for a := 1900; a < 3200; a += 50 {
		for b := 1500; b < 4500; b += 50 {
			c := New(testParams(4, WFS))
			base := c.AllocPageAligned(mem.PageSize)
			lost := false
			mustRun(t, c, func(n *Node) {
				switch n.ID() {
				case 0:
					n.Compute(5 * sim.Millisecond)
					n.Acquire(1)
					n.Release(1)
					n.Compute(10*sim.Millisecond - n.Proc().Now())
					n.WriteU64(base, 100)
				case 1:
					n.Acquire(1)
					n.WriteU64(base+8, 1)
					n.Release(1)
					n.Compute(10*sim.Millisecond + us(b) - n.Proc().Now())
					n.WriteU64(base+8, 101)
				case 2, 3: // refused at first, so they write under twins
					n.Compute(3 * sim.Millisecond)
					n.WriteU64(base+8*n.ID(), uint64(n.ID()))
					at := 500
					if n.ID() == 3 {
						at = a
					}
					n.Compute(10*sim.Millisecond + us(at) - n.Proc().Now())
					n.WriteU64(base+8*n.ID(), uint64(100+n.ID()))
				}
				n.Barrier()
				for p := 0; p < 4; p++ {
					if n.ReadU64(base+8*p) != uint64(100+p) {
						lost = true
					}
				}
			})
			if lost {
				t.Fatalf("arrival at +%d us, grantor's request at +%d us: a write was lost", a, b)
			}
		}
	}
}
