package core

import (
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// Lock grants that carry diffs (push.go), on the simulator under the wire
// cost profile, which is the one that pushes.

// diffReqCounter wraps the simulator runtime and counts the diff requests
// the nodes serve: serial diffReqs and span fetches that want diffs.
type diffReqCounter struct {
	transport.Runtime
	n *int
}

func (r diffReqCounter) Register(id int, h transport.Handler) {
	r.Runtime.Register(id, func(c transport.Call, from int, m transport.Msg) {
		switch m := m.(type) {
		case diffReq:
			*r.n++
		case spanFetchReq:
			if len(m.Diffs) > 0 {
				*r.n++
			}
		}
		h(c, from, m)
	})
}

// pushParams configures an MW cluster with the given cost profile that
// counts diff requests into *reqs.
func pushParams(procs int, cost CostProfile, reqs *int) Params {
	p := testParams(procs, MW)
	p.Cost = cost
	p.Runtime = func(p Params) transport.Runtime {
		return diffReqCounter{Runtime: transport.DefaultRuntime(p.Procs, p.Net, p.EventLimit), n: reqs}
	}
	return p
}

// handoff runs the two-node MW hand-off: node 1 writes x under lock 1,
// which it manages, and node 0, which holds a copy of x's page, takes the
// lock next and reads x. It reports the diff requests sent after both
// nodes held a valid copy, the diffs node 1 pushed, the pushes node 0's
// fault applied and what node 0 read.
func handoff(t *testing.T, cost CostProfile) (reqs int, pushed, used int64, got uint64) {
	t.Helper()
	var n int
	c := New(pushParams(2, cost, &n))
	x := c.AllocPageAligned(mem.PageSize)
	mustRun(t, c, func(nd *Node) {
		nd.ReadU64(x)
		nd.Barrier()
		if nd.ID() == 0 {
			reqs = n
		}
		switch nd.ID() {
		case 1:
			nd.Acquire(1)
			nd.WriteU64(x, 42)
			nd.Release(1)
			// Arriving at the barrier would tell node 0, its manager,
			// about the write before the hand-off.
			nd.Compute(100 * transport.Millisecond)
		case 0:
			nd.Compute(20 * transport.Millisecond)
			nd.Acquire(1)
			got = nd.ReadU64(x)
			reqs = n - reqs
			nd.Release(1)
		}
		nd.Barrier()
	})
	if left := len(c.Node(0).pushed); left != 0 {
		t.Errorf("acquirer still tracks %d pushes after applying them", left)
	}
	return reqs, c.Node(1).Stats.DiffsPushed, c.Node(0).Stats.PushesUsed, got
}

// TestGrantPushTakesDiffRoundTrip: the grant carries the writer's diff, so
// the acquirer's fault sends no diff request, applies the pushed diff and
// reads the write.
func TestGrantPushTakesDiffRoundTrip(t *testing.T) {
	reqs, pushed, used, got := handoff(t, WireProfile())
	if got != 42 {
		t.Fatalf("acquirer read %d, want 42", got)
	}
	if pushed != 1 || used != 1 || reqs != 0 {
		t.Errorf("hand-off pushed %d diffs, applied %d and sent %d diff requests, want 1, 1 and 0", pushed, used, reqs)
	}
}

// TestPaperProfilePushesNothing: the simulator's own profile keeps the
// paper's lazy invalidate — no diff rides a grant, and the fault fetches it.
func TestPaperProfilePushesNothing(t *testing.T) {
	reqs, pushed, _, got := handoff(t, PaperProfile())
	if got != 42 {
		t.Fatalf("acquirer read %d, want 42", got)
	}
	if pushed != 0 || reqs != 1 {
		t.Errorf("hand-off pushed %d diffs and sent %d diff requests, want 0 and 1", pushed, reqs)
	}
}

// budgetRun is the two-page hand-off of TestPushBudget: node 1 writes
// `words` words into each of two pages under lock 1, so both pages carry
// its own still-undiffed notice, and node 0, which has copies of both,
// takes the lock next and reads the last word of each. It reports the
// diffs pushed, the diff requests node 0's faults sent, how long node 0's
// acquire took, how many diffs node 1 had made when the grant arrived,
// what node 0 read, and the wire size of the first page's pushed diff.
func budgetRun(t *testing.T, budget int) (pushed int64, reqs int, wait transport.Time, made int64, got [2]uint64, first int) {
	t.Helper()
	const words = 13
	cost := WireProfile()
	cost.PushBudget = budget
	var n int
	c := New(pushParams(2, cost, &n))
	base := c.AllocPageAligned(2 * mem.PageSize)
	mustRun(t, c, func(nd *Node) {
		nd.ReadU64(base)
		nd.ReadU64(base + mem.PageSize)
		nd.Barrier()
		switch nd.ID() {
		case 1:
			nd.Acquire(1)
			for pg := 0; pg < 2; pg++ {
				for i := 0; i < words; i++ {
					nd.WriteU64(base+pg*mem.PageSize+8*i, uint64(pg+1))
				}
			}
			nd.Release(1)
			nd.Compute(100 * transport.Millisecond) // as in handoff
		case 0:
			nd.Compute(20 * transport.Millisecond)
			t0 := nd.proc.Now()
			nd.Acquire(1)
			wait = nd.proc.Now() - t0
			made = c.Node(1).Stats.DiffsCreated
			before := n
			for pg := range got {
				got[pg] = nd.ReadU64(base + pg*mem.PageSize + 8*(words-1))
			}
			reqs = n - before
			nd.Release(1)
		}
		nd.Barrier()
	})
	pg := base / mem.PageSize
	for k, d := range c.Node(0).diffCache {
		if k.page == pg && k.proc == 1 {
			first = keyLen(k) + d.EncodedSize()
		}
	}
	return c.Node(1).Stats.DiffsPushed, reqs, wait, made, got, first
}

// TestPushBudget: a grant whose diffs exceed the budget pushes the ones
// that fit, in shipping order, and the fault fetches the rest. Both diffs
// are the granter's own undiffed ones. With 150 bytes the first diff
// (104 modified bytes) fits and the second is made but does not; with
// exactly the first one's size the second is not even made, since no
// diff fits in what is left. Making the diff that does not ride the grant
// must not delay the grant: the two acquires take the same time.
func TestPushBudget(t *testing.T) {
	pushed, reqs, wait, made, got, first := budgetRun(t, 150)
	if got != [2]uint64{1, 2} {
		t.Fatalf("acquirer read %v, want [1 2]", got)
	}
	if pushed != 1 || reqs != 1 || made != 2 {
		t.Errorf("budget 150: pushed %d diffs, faults sent %d diff requests, granter made %d diffs; want 1, 1, 2",
			pushed, reqs, made)
	}
	if first == 0 || first >= 150 {
		t.Fatalf("first pushed diff is %d bytes on the wire, want 1..149", first)
	}
	pushed, reqs, exactWait, made, got, _ := budgetRun(t, first)
	if got != [2]uint64{1, 2} {
		t.Fatalf("acquirer read %v, want [1 2]", got)
	}
	if pushed != 1 || reqs != 1 || made != 1 {
		t.Errorf("budget %d: pushed %d diffs, faults sent %d diff requests, granter made %d diffs; want 1, 1, 1",
			first, pushed, reqs, made)
	}
	if wait != exactWait {
		t.Errorf("acquire took %v with an over-budget diff made, %v without: the grant paid for a diff it does not carry",
			wait, exactWait)
	}
}

// TestUnusablePushesDropped: a push is stored only if the fault would
// fetch it. Node 1 writes x under lock 1, and three nodes take the lock in
// turn after it:
//   - node 3 has no copy of x's page: it drops the writer's push, and its
//     fault fetches the page and then the diff (the run's one diff request);
//   - node 0 has a stale copy: it keeps the push node 3 passes on;
//   - node 2 first reads x racily, fetching node 0's copy, which already
//     reflects the write: it drops node 0's push.
//
// Every node reads the write.
func TestUnusablePushesDropped(t *testing.T) {
	var reqs int
	var got [4]uint64
	c := New(pushParams(4, WireProfile(), &reqs))
	x := c.AllocPageAligned(mem.PageSize)
	const lock = 1 // managed by node 1, the writer: it starts with the token
	mustRun(t, c, func(nd *Node) {
		switch nd.ID() {
		case 1:
			nd.Acquire(lock)
			nd.WriteU64(x, 7)
			nd.Release(lock)
			got[1] = 7
			return
		case 3:
			nd.Compute(20 * transport.Millisecond)
		case 0:
			nd.Compute(60 * transport.Millisecond)
		case 2:
			nd.Compute(100 * transport.Millisecond)
			if v := nd.ReadU64(x); v != 7 {
				t.Errorf("node 2's racy read of node 0's copy got %d, want 7", v)
			}
		}
		nd.Acquire(lock)
		got[nd.ID()] = nd.ReadU64(x)
		nd.Release(lock)
	})
	if got != [4]uint64{7, 7, 7, 7} {
		t.Fatalf("nodes read %v, want all 7", got)
	}
	for id, want := range []int64{0, 0, 1, 1} {
		if d := c.Node(id).Stats.PushesDropped; d != want {
			t.Errorf("node %d dropped %d pushes, want %d", id, d, want)
		}
	}
	if used := c.Totals().PushesUsed; used != 1 {
		t.Errorf("faults applied %d pushed diffs, want node 0's one", used)
	}
	if pushed := c.Totals().DiffsPushed; pushed != 3 {
		t.Errorf("grants pushed %d diffs, want 3", pushed)
	}
	if reqs != 1 {
		t.Errorf("%d diff requests, want node 3's one", reqs)
	}
}

// TestPushedDiffSurvivesRewrite: a pushed diff has left its writer, so
// the writer's next diff of the same slots must not disturb it. Node 0
// holds node 1's pushed diff while node 1 rewrites the same slots under
// another lock; node 0 must still read the first values from it.
func TestPushedDiffSurvivesRewrite(t *testing.T) {
	const slots = 16
	var reqs int
	c := New(pushParams(2, WireProfile(), &reqs))
	base := c.AllocPageAligned(mem.PageSize)
	var got [slots]uint64
	mustRun(t, c, func(nd *Node) {
		nd.ReadU64(base)
		nd.Barrier()
		switch nd.ID() {
		case 1: // manages locks 1 and 3; not the allocator, so it twins
			nd.Acquire(1)
			for i := 0; i < slots; i++ {
				nd.WriteU64(base+8*i, uint64(i+1))
			}
			nd.Release(1)
			nd.Compute(20 * transport.Millisecond) // node 0 takes lock 1
			nd.Acquire(3)
			for i := 0; i < slots; i++ {
				nd.WriteU64(base+8*i, uint64(i+100))
			}
			nd.Release(3)
			nd.Compute(100 * transport.Millisecond) // as in handoff
		case 0:
			nd.Compute(10 * transport.Millisecond)
			nd.Acquire(1)
			nd.Compute(50 * transport.Millisecond) // node 1 rewrites meanwhile
			for i := range got {
				got[i] = nd.ReadU64(base + 8*i)
			}
			nd.Release(1)
		}
		nd.Barrier()
	})
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("slot %d read %d, want %d (the pushed diff was lost)", i, v, i+1)
		}
	}
	if pushed := c.Node(1).Stats.DiffsPushed; pushed != 1 || reqs != 0 {
		t.Errorf("pushed %d, diff requests %d; want 1, 0", pushed, reqs)
	}
}
