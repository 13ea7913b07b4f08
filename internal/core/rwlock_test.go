package core

import (
	"strings"
	"testing"

	"adsm/internal/sim"
	"adsm/internal/transport"
)

// Shared (read) lock holds: AcquireShared/ReleaseShared under LRC. Lock 3
// on three nodes is managed by node 0, which starts with its token.

const rwLock = 3

// TestSharedReadersOverlap: two nodes hold read sections of one lock at
// the same time, both see the value written under it exclusively, and a
// second shared acquire on a cached grant sends no message at all.
func TestSharedReadersOverlap(t *testing.T) {
	c := New(testParams(3, MW))
	x := c.Alloc(8)
	var enter, exit [3]transport.Time
	var got [3]uint64
	var cachedMsgs int64 = -1
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			n.Acquire(rwLock)
			n.WriteU64(x, 7)
			n.Release(rwLock)
		}
		n.Barrier()
		if n.ID() == 0 {
			return
		}
		n.AcquireShared(rwLock)
		enter[n.ID()] = n.Proc().Now()
		got[n.ID()] = n.ReadU64(x)
		n.Compute(20 * sim.Millisecond)
		exit[n.ID()] = n.Proc().Now()
		n.ReleaseShared(rwLock)
		n.Compute(50 * sim.Millisecond) // both grants are cached by now
		if n.ID() == 1 {
			before := counts(c).Messages
			n.AcquireShared(rwLock)
			got[0] = n.ReadU64(x)
			n.ReleaseShared(rwLock)
			cachedMsgs = counts(c).Messages - before
		}
	})
	for id := 1; id <= 2; id++ {
		if got[id] != 7 {
			t.Errorf("reader %d saw %d, want 7", id, got[id])
		}
	}
	if enter[1] >= exit[2] || enter[2] >= exit[1] {
		t.Errorf("read sections did not overlap: node 1 [%v, %v], node 2 [%v, %v]", enter[1], exit[1], enter[2], exit[2])
	}
	if cachedMsgs != 0 || got[0] != 7 {
		t.Errorf("shared acquire on a cached grant sent %d messages and read %d (want 0 messages, 7)", cachedMsgs, got[0])
	}
	if hits := c.Node(1).Stats.SharedLocal; hits != 1 {
		t.Errorf("node 1 served %d shared acquires locally, want 1", hits)
	}
	if tot := c.Totals(); tot.Revokes != 0 {
		t.Errorf("%d revokes with no writer", tot.Revokes)
	}
}

// TestLockWaitsForReaders: an exclusive acquire revokes every read grant
// and enters only after the open read section has ended; the next shared
// acquire on another node sees the write.
func TestLockWaitsForReaders(t *testing.T) {
	for _, proto := range []Protocol{MW, SW, HLRC, Adaptive} {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(3, proto))
			x := c.Alloc(8)
			var readerExit, writerEnter transport.Time
			var first, after uint64
			mustRun(t, c, func(n *Node) {
				if n.ID() == 0 {
					n.Acquire(rwLock)
					n.WriteU64(x, 1)
					n.Release(rwLock)
				}
				n.Barrier()
				switch n.ID() {
				case 1: // long read section, open when the writer arrives
					n.AcquireShared(rwLock)
					first = n.ReadU64(x)
					n.Compute(30 * sim.Millisecond)
					readerExit = n.Proc().Now()
					n.ReleaseShared(rwLock)
				case 2: // a cached grant, then a re-read after the write
					n.AcquireShared(rwLock)
					n.ReleaseShared(rwLock)
					n.Compute(100 * sim.Millisecond)
					n.AcquireShared(rwLock)
					after = n.ReadU64(x)
					n.ReleaseShared(rwLock)
				case 0:
					n.Compute(10 * sim.Millisecond)
					n.Acquire(rwLock)
					writerEnter = n.Proc().Now()
					n.WriteU64(x, 2)
					n.Release(rwLock)
				}
				n.Barrier()
			})
			if first != 1 || after != 2 {
				t.Errorf("reader saw %d before and %d after the write, want 1 and 2", first, after)
			}
			if writerEnter < readerExit {
				t.Errorf("writer entered at %v, before the read section ended at %v", writerEnter, readerExit)
			}
			if tot := c.Totals(); tot.Revokes != 2 {
				t.Errorf("%d revokes, want 2 (both readers)", tot.Revokes)
			}
		})
	}
}

// TestReadReleaseHappensBeforeWrite: a reader wrote y under another lock,
// then held L shared. The next exclusive holder of L must see y without
// touching the other lock — the revoke answer carries it.
func TestReadReleaseHappensBeforeWrite(t *testing.T) {
	for _, proto := range []Protocol{MW, SW, HLRC} {
		t.Run(proto.String(), func(t *testing.T) {
			c := New(testParams(3, proto))
			y := c.AllocPageAligned(8)
			var got uint64
			mustRun(t, c, func(n *Node) {
				n.Barrier()
				switch n.ID() {
				case 1:
					n.Acquire(rwLock + 1)
					n.WriteU64(y, 42)
					n.Release(rwLock + 1)
					n.AcquireShared(rwLock)
					n.ReleaseShared(rwLock)
					// Keep y off the barrier until the writer is in: node 0,
					// the barrier manager and L's token holder, would learn
					// it from our arrival and pass it on with the token.
					n.Compute(100 * sim.Millisecond)
				case 2:
					n.Compute(20 * sim.Millisecond)
					n.Acquire(rwLock)
					got = n.ReadU64(y)
					n.Release(rwLock)
				}
				n.Barrier()
			})
			if got != 42 {
				t.Errorf("next exclusive holder read y=%d, want 42 (ordered by the read release)", got)
			}
		})
	}
}

// delayGrants wraps the simulator so that the first lock or single-writer
// ownership grant bound for node `to` leaves its granter late: a revoke or
// a forwarded ownership request sent after it can then arrive first. It
// records what node `to`'s state was when either got there, and counts
// the ownership request messages each requester caused.
type delayGrants struct {
	transport.Runtime
	c       **Cluster
	to      int
	d       transport.Time
	delayed bool
	// revokeWhileWaiting: the revoke reached node `to` before its grant.
	revokeWhileWaiting bool
	// ownReqWhileWaiting: a forwarded ownership request reached node `to`
	// before its own ownership grant.
	ownReqWhileWaiting bool
	// ownReqMsgs counts, per requester, the swOwnReq messages that crossed
	// the network (a node's call to itself is not a message).
	ownReqMsgs map[int]int
}

func (dg *delayGrants) Register(id int, h transport.Handler) {
	dg.Runtime.Register(id, func(c transport.Call, from int, m transport.Msg) {
		switch r := m.(type) {
		case acqRevoke:
			if id == dg.to {
				dg.revokeWhileWaiting = (*dg.c).Node(id).lockState(r.Lock).reading
			}
		case swOwnReq:
			if id == dg.to && r.Hops > 0 && !(*dg.c).Node(id).pages[r.Page].owner {
				dg.ownReqWhileWaiting = true
			}
			if from != id {
				if dg.ownReqMsgs == nil {
					dg.ownReqMsgs = map[int]int{}
				}
				dg.ownReqMsgs[c.Origin()]++
			}
		}
		h(&delayCall{Call: c, dg: dg}, from, m)
	})
}

type delayCall struct {
	transport.Call
	dg *delayGrants
}

func (dc *delayCall) Reply(m transport.Msg) { dc.ReplyAfter(0, m) }

func (dc *delayCall) ReplyAfter(d transport.Time, m transport.Msg) {
	switch m.(type) {
	case acqGrant, swOwnGrant:
		if dc.Origin() == dc.dg.to && !dc.dg.delayed {
			dc.dg.delayed = true
			d += dc.dg.d
		}
	}
	dc.Call.ReplyAfter(d, m)
}

// params installs dg as the cluster's runtime, around the simulator.
func (dg *delayGrants) params(p Params) Params {
	p.Runtime = func(p Params) transport.Runtime {
		dg.Runtime = transport.DefaultRuntime(p.Procs, p.Net, p.EventLimit)
		return dg
	}
	return p
}

// TestRevokeOvertakingGrantIsDeferred: the writer's revoke reaches the
// reader before the shared grant it revokes. The reader must hold it
// until the grant has arrived and its read section has ended — not lose
// it (the writer would wait forever) and not apply it twice (the next
// shared acquire must fetch a fresh grant and see the write).
func TestRevokeOvertakingGrantIsDeferred(t *testing.T) {
	var c *Cluster
	dg := &delayGrants{c: &c, to: 1, d: 20 * sim.Millisecond}
	c = New(dg.params(testParams(3, MW)))
	x := c.Alloc(8)
	var readerExit, writerEnter transport.Time
	var first, second uint64
	mustRun(t, c, func(n *Node) {
		if n.ID() == 0 {
			n.Acquire(rwLock)
			n.WriteU64(x, 1)
			n.Release(rwLock)
		}
		n.Barrier()
		switch n.ID() {
		case 1:
			n.AcquireShared(rwLock) // its grant is the delayed one
			first = n.ReadU64(x)
			readerExit = n.Proc().Now()
			n.ReleaseShared(rwLock)
			n.Compute(50 * sim.Millisecond)
			n.AcquireShared(rwLock)
			second = n.ReadU64(x)
			n.ReleaseShared(rwLock)
		case 2:
			n.Compute(sim.Millisecond) // after node 1's request at the manager
			n.Acquire(rwLock)
			writerEnter = n.Proc().Now()
			n.WriteU64(x, 2)
			n.Release(rwLock)
		}
		n.Barrier()
	})
	if !dg.delayed || !dg.revokeWhileWaiting {
		t.Fatalf("schedule not forced: grant delayed %v, revoke arrived while waiting %v", dg.delayed, dg.revokeWhileWaiting)
	}
	if first != 1 || second != 2 {
		t.Errorf("reader saw %d then %d, want 1 then 2", first, second)
	}
	if writerEnter < readerExit {
		t.Errorf("writer entered at %v, before the deferred read section ended at %v", writerEnter, readerExit)
	}
	st := c.Node(1).lockState(rwLock)
	if st.revoke.c != nil || st.reading {
		t.Errorf("reader left with revoke=%v reading=%v", st.revoke.c != nil, st.reading)
	}
	if tot := c.Totals(); tot.Revokes != 1 || tot.SharedLocal != 0 {
		t.Errorf("revokes %d, local shared acquires %d; want 1 and 0", tot.Revokes, tot.SharedLocal)
	}
}

// TestSharedLockMisusePanics: mixing the modes on one hold fails loudly,
// like a recursive Acquire or a Release of a lock not held.
func TestSharedLockMisusePanics(t *testing.T) {
	cases := []struct {
		name, want string
		body       func(n *Node)
	}{
		{"RLock while holding exclusively", "recursively acquiring", func(n *Node) {
			n.Acquire(rwLock)
			n.AcquireShared(rwLock)
		}},
		{"Lock while holding shared", "recursively acquiring", func(n *Node) {
			n.AcquireShared(rwLock)
			n.Acquire(rwLock)
		}},
		{"Unlock of a shared hold", "does not hold exclusively", func(n *Node) {
			n.AcquireShared(rwLock)
			n.Release(rwLock)
		}},
		{"RUnlock of an exclusive hold", "does not hold shared", func(n *Node) {
			n.Acquire(rwLock)
			n.ReleaseShared(rwLock)
		}},
		{"RLock twice", "recursively acquiring", func(n *Node) {
			n.AcquireShared(rwLock)
			n.AcquireShared(rwLock)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, id := range []int{0, 1} { // token holder, and a remote reader
				c := New(testParams(3, MW))
				c.Alloc(8)
				_, err := c.Run(func(n *Node) {
					if n.ID() == id {
						tc.body(n)
					}
				})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("node %d: err = %v, want a panic containing %q", id, err, tc.want)
				}
			}
		})
	}
}

// TestDowngradedHolderRelocksLocally: the token holder that granted a read
// keeps the token, so its next Lock needs no manager round trip (the
// manager forwards nothing): it revokes the reader directly, and the
// reader's next shared acquire sees the write.
func TestDowngradedHolderRelocksLocally(t *testing.T) {
	c := New(testParams(3, MW))
	x := c.Alloc(8)
	var fwds int64 = -1
	var got uint64
	mustRun(t, c, func(n *Node) {
		if n.ID() == 1 { // node 0 manages the lock; node 1 takes the token
			n.Acquire(rwLock)
			n.WriteU64(x, 1)
			n.Release(rwLock)
		}
		n.Barrier()
		if n.ID() == 2 {
			n.AcquireShared(rwLock)
			n.ReleaseShared(rwLock)
		}
		n.Barrier()
		if n.ID() == 1 {
			before := c.Node(0).Stats.Forwards
			n.Acquire(rwLock)
			fwds = c.Node(0).Stats.Forwards - before
			n.WriteU64(x, 2)
			n.Release(rwLock)
		}
		n.Barrier()
		if n.ID() == 2 {
			n.AcquireShared(rwLock)
			got = n.ReadU64(x)
			n.ReleaseShared(rwLock)
		}
	})
	if fwds != 0 {
		t.Errorf("holder's Lock over a cached reader went through the manager (%d forwards)", fwds)
	}
	if got != 2 {
		t.Errorf("reader saw %d after the write, want 2", got)
	}
	if tot := c.Totals(); tot.Revokes != 1 {
		t.Errorf("%d revokes, want 1", tot.Revokes)
	}
}
