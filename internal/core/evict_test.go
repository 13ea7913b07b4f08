package core

import (
	"bytes"
	"slices"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// Reclamation between barriers (evict.go), on the simulator under the wire
// cost profile so that grants push. Lock l is managed by node l%procs;
// every script below runs its steps in virtual time, 10 ms apart.

const ms = transport.Millisecond

// hasDiff reports whether node n caches writer's diff for page pg.
func hasDiff(n *Node, pg, writer int) bool {
	for k := range n.diffCache {
		if k.page == pg && k.proc == writer {
			return true
		}
	}
	return false
}

// TestSilentPeerHoldsFrontier: node 0 caches node 1's diff, and nodes 1
// and 2 tell it (by acquiring locks it manages) that they know the write.
// Node 3 has sent node 0 nothing, so node 0's frontier stays at zero and
// its release evicts nothing. Once node 3 too has learned the write and
// asked node 0 for a lock, node 0's next release evicts the diff.
func TestSilentPeerHoldsFrontier(t *testing.T) {
	var reqs int
	c := New(pushParams(4, WireProfile(), &reqs))
	x := c.AllocPageAligned(mem.PageSize)
	pg := x / mem.PageSize
	var heldWhileSilent bool
	var evictedWhileSilent int64
	mustRun(t, c, func(nd *Node) {
		nd.ReadU64(x)
		nd.Barrier()
		switch nd.ID() {
		case 1:
			nd.Acquire(1)
			nd.WriteU64(x, 42)
			nd.Release(1)
			nd.Compute(30 * ms)
			nd.Acquire(4) // managed by node 0
			nd.Release(4)
		case 0:
			nd.Compute(10 * ms)
			nd.Acquire(1)
			if v := nd.ReadU64(x); v != 42 {
				t.Errorf("node 0 read %d, want 42", v)
			}
			nd.Release(1)
			nd.Compute(40 * ms) // nodes 1 and 2 report meanwhile
			nd.Acquire(0)
			nd.Release(0)
			heldWhileSilent = hasDiff(nd, pg, 1)
			evictedWhileSilent = nd.Stats.DiffsEvicted
			nd.Compute(40 * ms) // node 3 reports meanwhile
			nd.Acquire(0)
			nd.Release(0)
		case 2:
			nd.Compute(20 * ms)
			nd.Acquire(1) // from node 0: learns node 1's write
			nd.Release(1)
			nd.Acquire(8) // managed by node 0
			nd.Release(8)
		case 3:
			nd.Compute(70 * ms)
			nd.Acquire(1)
			nd.Release(1)
			nd.Acquire(12) // managed by node 0
			nd.Release(12)
		}
		nd.Barrier()
	})
	if !heldWhileSilent || evictedWhileSilent != 0 {
		t.Errorf("with node 3 silent, node 0 held the diff: %v, evicted %d; want true, 0",
			heldWhileSilent, evictedWhileSilent)
	}
	if got := c.Node(0).Stats.DiffsEvicted; got != 1 || hasDiff(c.Node(0), pg, 1) {
		t.Errorf("once every peer knew the write, node 0 evicted %d diffs (still cached: %v); want 1 (false)",
			got, hasDiff(c.Node(0), pg, 1))
	}
}

// TestPendingDiffNotEvicted: node 0 has a copy of x and takes the lock
// after node 1 wrote x, so the grant's pushed diff is cached and pending
// until node 0 next touches x. Every peer knows the write before node 0
// releases another lock, but the pending diff must stay: the fault that
// follows applies it without a diff request. Once applied, node 0's next
// release evicts it.
func TestPendingDiffNotEvicted(t *testing.T) {
	var reqs int
	c := New(pushParams(3, WireProfile(), &reqs))
	x := c.AllocPageAligned(mem.PageSize)
	pg := x / mem.PageSize
	var heldPending bool
	var evictedPending int64
	var faultReqs int
	mustRun(t, c, func(nd *Node) {
		nd.ReadU64(x)
		nd.Barrier()
		switch nd.ID() {
		case 1:
			nd.Acquire(1)
			nd.WriteU64(x, 42)
			nd.Release(1)
			nd.Compute(20 * ms)
			nd.Acquire(3) // managed by node 0
			nd.Release(3)
		case 0:
			nd.Compute(10 * ms)
			nd.Acquire(1) // the grant pushes node 1's diff of x
			nd.Release(1)
			nd.Compute(30 * ms) // nodes 1 and 2 report meanwhile
			nd.Acquire(0)
			nd.Release(0)
			heldPending = hasDiff(nd, pg, 1)
			evictedPending = nd.Stats.DiffsEvicted
			before := reqs
			if v := nd.ReadU64(x); v != 42 {
				t.Errorf("node 0 read %d, want 42", v)
			}
			faultReqs = reqs - before
			nd.Acquire(0)
			nd.Release(0)
		case 2:
			nd.Compute(20 * ms)
			nd.Acquire(1) // from node 0: learns node 1's write
			nd.Release(1)
			nd.Acquire(6) // managed by node 0
			nd.Release(6)
		}
		nd.Barrier()
	})
	n0 := c.Node(0)
	if !heldPending || evictedPending != 0 {
		t.Errorf("pending pushed diff: held %v, evicted %d; want true, 0", heldPending, evictedPending)
	}
	if faultReqs != 0 || n0.Stats.PushesUsed != 1 {
		t.Errorf("node 0's fault sent %d diff requests and applied %d pushes, want 0 and 1",
			faultReqs, n0.Stats.PushesUsed)
	}
	if n0.Stats.DiffsEvicted != 1 || hasDiff(n0, pg, 1) {
		t.Errorf("after the fault applied it, node 0 evicted %d diffs (x's still cached: %v); want 1 (false)",
			n0.Stats.DiffsEvicted, hasDiff(n0, pg, 1))
	}
}

// TestSupersededPushLeavesPushed: a push that a whole-page fetch made
// useless is never applied, so only eviction can drop it from the pushed
// set, and it does not count as used. Node 0 stores node 1's pushed diff
// of x, then fetches node 1's whole copy of x, which reflects the write:
// its next fault applies nothing. Once nodes 1 and 2 have told node 0
// they know the write, node 0's release evicts the diff and forgets the
// push.
func TestSupersededPushLeavesPushed(t *testing.T) {
	var reqs int
	c := New(pushParams(3, WireProfile(), &reqs))
	x := c.AllocPageAligned(mem.PageSize)
	pg := x / mem.PageSize
	var pushedBefore int
	mustRun(t, c, func(nd *Node) {
		nd.ReadU64(x)
		nd.Barrier()
		switch nd.ID() {
		case 1:
			nd.Acquire(1)
			nd.WriteU64(x, 42)
			nd.Release(1)
			nd.Compute(20 * ms)
			nd.Acquire(3) // managed by node 0
			nd.Release(3)
		case 0:
			nd.Compute(10 * ms)
			nd.Acquire(1) // the grant pushes node 1's diff of x
			nd.Release(1)
			nd.fetchPage(pg, nd.pages[pg], 1)
			if v := nd.ReadU64(x); v != 42 {
				t.Errorf("node 0 read %d, want 42", v)
			}
			pushedBefore = len(nd.pushed)
			nd.Compute(30 * ms) // nodes 1 and 2 report meanwhile
			nd.Acquire(0)
			nd.Release(0)
		case 2:
			nd.Compute(20 * ms)
			nd.Acquire(1) // from node 0: learns node 1's write
			nd.Release(1)
			nd.Acquire(6) // managed by node 0
			nd.Release(6)
		}
		nd.Barrier()
	})
	n0 := c.Node(0)
	if pushedBefore != 1 {
		t.Fatalf("after the page fetch node 0 tracked %d pushes, want the superseded one", pushedBefore)
	}
	if n0.Stats.PushesUsed != 0 || n0.Stats.DiffsEvicted != 1 || len(n0.pushed) != 0 {
		t.Errorf("node 0 applied %d pushes, evicted %d diffs and still tracks %d pushes; want 0, 1, 0",
			n0.Stats.PushesUsed, n0.Stats.DiffsEvicted, len(n0.pushed))
	}
}

// grantRecorder wraps the simulator runtime and records the keys every
// lock grant received by node `to` carried.
type grantRecorder struct {
	transport.Runtime
	to   int
	keys *[][]wnKey
}

func (r grantRecorder) Call(p transport.Proc, to int, m transport.Msg) transport.Msg {
	resp := r.Runtime.Call(p, to, m)
	if g, ok := resp.(acqGrant); ok && p.ID() == r.to {
		*r.keys = append(*r.keys, slices.Clone(g.Keys))
	}
	return resp
}

// TestEvictionKeepsGrantPushes: a grant after an eviction pass pushes the
// same keys it would have pushed before it. Node 1 writes x, then y, under
// lock 1. Node 3 learns only the write to x before it asks node 0 for lock
// 4, which node 0 holds; node 0 has both diffs cached, and nodes 1 and 2
// know both writes. Node 0 first releases lock 0 — evicting x's diff,
// which no grant can push again — then lock 4, whose grant to node 3 must
// still push y's diff.
func TestEvictionKeepsGrantPushes(t *testing.T) {
	p := testParams(4, MW)
	p.Cost = WireProfile()
	var grants [][]wnKey
	p.Runtime = func(p Params) transport.Runtime {
		return grantRecorder{Runtime: transport.DefaultRuntime(p.Procs, p.Net, p.EventLimit), to: 3, keys: &grants}
	}
	c := New(p)
	x := c.AllocPageAligned(2 * mem.PageSize)
	y := x + mem.PageSize
	var want []wnKey
	var evictedBefore int64
	mustRun(t, c, func(nd *Node) {
		nd.ReadU64(x)
		nd.ReadU64(y)
		nd.Barrier()
		switch nd.ID() {
		case 1:
			nd.Acquire(1)
			nd.WriteU64(x, 1)
			nd.Release(1)
			nd.Compute(20 * ms)
			nd.Acquire(1)
			nd.WriteU64(y, 2)
			nd.Release(1)
			nd.Compute(30 * ms)
			nd.Acquire(8) // managed by node 0
			nd.Release(8)
		case 3:
			nd.Compute(10 * ms)
			nd.Acquire(1) // learns the write to x only
			nd.Release(1)
			nd.Compute(60 * ms)
			grants = nil
			nd.Acquire(4) // queued at node 0
			nd.Release(4)
		case 0:
			nd.Compute(30 * ms)
			nd.Acquire(1)
			if a, b := nd.ReadU64(x), nd.ReadU64(y); a != 1 || b != 2 {
				t.Errorf("node 0 read %d, %d; want 1, 2", a, b)
			}
			nd.Release(1)
			nd.Acquire(4)
			nd.Acquire(0)
			nd.Compute(50 * ms) // peers report; node 3's request queues
			if q := nd.locks[4].pending; q.c != nil {
				_, want, _ = nd.pushDiffs(nd.intervalsSince(q.know))
			} else {
				t.Error("node 3's request is not queued at node 0")
			}
			evictedBefore = nd.Stats.DiffsEvicted
			nd.Release(0)
			nd.Release(4)
		case 2:
			nd.Compute(40 * ms)
			nd.Acquire(1) // from node 0: learns both writes
			nd.Release(1)
			nd.Acquire(12) // managed by node 0
			nd.Release(12)
		}
		nd.Barrier()
	})
	if evicted := c.Node(0).Stats.DiffsEvicted - evictedBefore; evicted != 1 {
		t.Fatalf("node 0's release of lock 0 evicted %d diffs, want x's one", evicted)
	}
	if len(want) == 0 || want[0].page != y/mem.PageSize {
		t.Fatalf("before eviction a grant to node 3 would push %v, want y's diff", want)
	}
	if len(grants) != 1 || !slices.Equal(grants[0], want) {
		t.Errorf("node 3's grant pushed %v, want %v as before eviction", grants, want)
	}
}

// TestStoredDiffsOutliveFrame: a diff decoded from a frame aliases the
// frame's body (decoding is zero-copy), and storing it copies the payload
// out, so a cached diff neither pins nor depends on the frame. A diffResp
// and an acqGrant are decoded from their wire bodies, their diffs stored
// through storeDiff and acceptPushes, the bodies overwritten, and the
// cached diffs applied: they must rebuild the pages they were made from.
func TestStoredDiffsOutliveFrame(t *testing.T) {
	c := New(testParams(2, MW))
	c.AllocPageAligned(2 * mem.PageSize)
	c.framed = true // as on a runtime that moves frames
	n := c.Node(0)
	n.buildPages(c.usedPages())

	ivc := vc.VC{0, 1}
	refs := n.addInterval(1, ivc, wnRow{page: 0}, wnRow{page: 1})
	var want [2][]byte
	var keys [2]wnKey
	var diffs [2]*mem.Diff
	for pg := range want {
		keys[pg] = refs[pg].key(pg)
		want[pg] = make([]byte, mem.PageSize)
		for i := 64 * pg; i < 64*pg+40; i++ {
			want[pg][i] = byte(i + pg)
		}
		diffs[pg] = mem.MakeDiff(pg, make([]byte, mem.PageSize), want[pg])
	}

	decode := func(m transport.Msg) (transport.Msg, []byte) {
		t.Helper()
		body, ok := transport.WireBody(m)
		codec, ok2 := transport.CodecOf(m)
		if !ok || !ok2 {
			t.Fatalf("%T has no binary codec", m)
		}
		got, err := codec.DecodeWire(body)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		return got, body
	}
	inBody := func(d *mem.Diff, body []byte) bool {
		data := d.Data()
		return &data[0] == &body[len(body)-len(data)]
	}

	resp, respBody := decode(diffResp{Diffs: diffs[:1], Keys: keys[:1]})
	grant, grantBody := decode(acqGrant{Intervals: n.intervalsSince([]int32{0, 0}), VC: ivc, Diffs: diffs[1:], Keys: keys[1:], nprocs: 2})
	dr, g := resp.(diffResp), grant.(acqGrant)
	if !inBody(dr.Diffs[0], respBody) || !inBody(g.Diffs[0], grantBody) {
		t.Fatal("decoded diff payloads do not alias their frame bodies")
	}

	n.storeDiff(keys[0], dr.Diffs[0], false)
	ps := n.pages[1]
	ps.data = make([]byte, mem.PageSize)
	ps.pending = []wnRef{refs[1]} // the grant's notice, ingested
	n.acceptPushes(g)
	if n.Stats.PushesDropped != 0 {
		t.Fatal("the pushed diff was dropped")
	}
	for _, body := range [][]byte{respBody, grantBody} {
		for i := range body {
			body[i] = 0xff
		}
	}
	for pg, k := range keys {
		d := n.diffCache[k]
		if d == nil {
			t.Fatalf("page %d: diff not cached", pg)
		}
		page := make([]byte, mem.PageSize)
		d.Apply(page)
		if !bytes.Equal(page, want[pg]) {
			t.Errorf("page %d: the cached diff changed with its frame", pg)
		}
	}
}
