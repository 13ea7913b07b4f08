package core

import (
	"testing"

	"adsm/internal/sim"
	"adsm/internal/transport"
)

// Pure SW ownership requests queue behind the page's last requester: the
// home forwards each request at most once, to that node, which holds it
// until its own tenure is over.

// TestSWRequestQueuesAtWaitingRequester: node 1's grant is held back, so
// node 2's request, which the home forwards to node 1, reaches node 1
// while it is still waiting. Node 1 must keep the request and grant it
// after its own quantum, not send it on.
func TestSWRequestQueuesAtWaitingRequester(t *testing.T) {
	var c *Cluster
	dg := &delayGrants{c: &c, to: 1, d: 20 * sim.Millisecond}
	p := testParams(3, SW)
	c = New(dg.params(p))
	base := c.AllocPageAligned(4096) // page 0: home and first owner node 0
	var owned1, owned2 transport.Time
	var seen uint64
	mustRun(t, c, func(n *Node) {
		n.Barrier()
		switch n.ID() {
		case 1:
			n.WriteU64(base+8, 11) // its grant is the delayed one
			owned1 = n.Proc().Now()
		case 2:
			n.Compute(sim.Millisecond) // after node 1's request at the home
			n.WriteU64(base+16, 22)
			owned2 = n.Proc().Now()
			seen = n.ReadU64(base + 8)
		}
		n.Barrier()
	})
	if !dg.delayed || !dg.ownReqWhileWaiting {
		t.Fatalf("schedule not forced: grant delayed %v, request arrived while waiting %v", dg.delayed, dg.ownReqWhileWaiting)
	}
	if seen != 11 {
		t.Errorf("node 2 owns a copy without node 1's write: read %d, want 11", seen)
	}
	if owned2 < owned1+p.OwnershipQuantum {
		t.Errorf("node 2 took the page at %v, inside node 1's quantum (from %v)", owned2, owned1)
	}
	if tot := c.Totals(); tot.Forwards != 1 || tot.OwnershipGrants != 2 {
		t.Errorf("%d forwards, %d grants; want 1 and 2", tot.Forwards, tot.OwnershipGrants)
	}
	if got := dg.ownReqMsgs[2]; got != 2 {
		t.Errorf("node 2's request crossed the network %d times, want 2 (to the home, then to node 1)", got)
	}
	if q := c.Node(1).pages[0]; q.swNext != nil || q.owner {
		t.Errorf("node 1 left with a queued request %v, owner %v", q.swNext != nil, q.owner)
	}
}

// TestSWBackToBackRequestsForwardOnce: three nodes ask for one page before
// any grant has arrived, with no barrier between them, so the home's view
// of the owner is always stale. Every request costs at most 3 messages:
// one forward when the home is not the last requester, none when it is.
func TestSWBackToBackRequestsForwardOnce(t *testing.T) {
	var c *Cluster
	dg := &delayGrants{c: &c, to: -1}
	c = New(dg.params(testParams(4, SW)))
	base := c.AllocPageAligned(4 * 4096)
	pg := 3 // home node 3; node 0 owns every page first
	addr := base + pg*4096
	// The home's own request reaches it second: node 1's has crossed the
	// network by then, and node 2's has not.
	start := map[int]transport.Time{1: 0, 3: 600 * sim.Microsecond, 2: 700 * sim.Microsecond}
	mustRun(t, c, func(n *Node) {
		n.Barrier()
		if d, ok := start[n.ID()]; ok {
			n.Compute(d)
			n.WriteU64(addr+8*n.ID(), uint64(10*n.ID()))
		}
		n.Barrier()
		for id := range start {
			if got := n.ReadU64(addr + 8*id); got != uint64(10*id) {
				t.Errorf("node %d: word %d = %d, want %d", n.ID(), id, got, 10*id)
			}
		}
	})
	// Node 1: to the home, forwarded to node 0 (the first owner).
	// Node 3: the home's call to itself, forwarded to node 1.
	// Node 2: to the home, which is the last requester and queues it.
	want := map[int]int{1: 2, 3: 1, 2: 1}
	for id, msgs := range want {
		if got := dg.ownReqMsgs[id]; got != msgs {
			t.Errorf("node %d's request crossed the network %d times, want %d", id, got, msgs)
		}
	}
	if tot := c.Totals(); tot.Forwards != 2 || tot.OwnershipGrants != 3 {
		t.Errorf("%d forwards, %d grants; want 2 and 3", tot.Forwards, tot.OwnershipGrants)
	}
}
