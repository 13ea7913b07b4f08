package core

import (
	"fmt"

	"adsm/internal/transport"
	"adsm/internal/vc"
)

// Distributed locks, TreadMarks style: each lock has a static manager
// (lock id mod procs) that tracks the last holder and forwards acquire
// requests to it; the grant travels directly from the holder to the
// requester carrying the intervals (write notices) the requester lacks.

// mgrLock is the manager-side record for one lock. It lives on the
// managing node (Node.mgrLocks), the only node that touches it.
type mgrLock struct {
	lastHolder int
}

func (n *Node) mgrLock(lock int) *mgrLock {
	ml, ok := n.mgrLocks[lock]
	if !ok {
		ml = &mgrLock{lastHolder: n.c.lockManagerOf(lock)}
		n.mgrLocks[lock] = ml
	}
	return ml
}

func (c *Cluster) lockManagerOf(lock int) int { return lock % c.params.Procs }

func (n *Node) lockState(lock int) *nodeLock {
	st, ok := n.locks[lock]
	if !ok {
		st = &nodeLock{}
		if n.id == n.c.lockManagerOf(lock) {
			// The manager starts with the token.
			st.state = lockReleased
			st.relVC = vc.New(n.c.params.Procs)
		}
		n.locks[lock] = st
	}
	return st
}

// Acquire obtains the lock, ingesting the releaser's write notices
// (invalidations) per lazy release consistency.
func (n *Node) Acquire(lock int) {
	// An acquire starts a new interval in program order.
	n.closeInterval()
	n.Stats.LockAcquires++
	st := n.lockState(lock)
	if st.state == lockHolding {
		panic(fmt.Sprintf("dsm: node %d recursively acquiring lock %d", n.id, lock))
	}

	if st.state == lockReleased {
		// We still hold the token (we were the last holder and nobody has
		// asked for it): reacquire locally, no messages. The manager's
		// last-holder record already names us.
		st.state = lockHolding
		return
	}

	mgr := n.c.lockManagerOf(lock)
	st.state = lockWaiting
	resp := n.c.rt.Call(n.proc, mgr, acqReq{Lock: lock, KnownTS: append([]int32(nil), n.knownTS...)}).(acqGrant)
	st.state = lockHolding
	n.ingestIntervals(resp.Intervals)
	n.vclock.Join(resp.VC)
}

// Release ends the critical section; if another node's acquire is queued
// here, the grant (with piggybacked intervals) goes out immediately.
func (n *Node) Release(lock int) {
	// The release closes the interval so its write notices exist before
	// the lock can move.
	n.closeInterval()
	st := n.lockState(lock)
	if st.state != lockHolding {
		panic(fmt.Sprintf("dsm: node %d releasing lock %d it does not hold", n.id, lock))
	}
	st.relVC = n.vclock.Copy()
	if st.pending != nil {
		c := st.pending
		know := st.pendKnow
		st.pending = nil
		st.pendKnow = nil
		st.state = lockNone // token moves to the requester
		n.grantLock(c, know)
		return
	}
	st.state = lockReleased
}

// grantLock replies to a queued acquire with the intervals the requester
// lacks and the vector clock of our release. (Using the release-time
// snapshot rather than a later clock keeps concurrent writes looking
// concurrent, which the false-sharing detection depends on.)
func (n *Node) grantLock(c transport.Call, requesterKnow []int32) {
	ivs := n.shipIntervals(requesterKnow)
	c.Reply(acqGrant{Intervals: ivs, VC: n.vclock.Copy(), nprocs: n.c.params.Procs})
}

// serveAcqReq runs at the lock manager: forward to the last holder (or
// grant locally when the token is here).
func (n *Node) serveAcqReq(c transport.Call, from int, m acqReq) {
	ml := n.mgrLock(m.Lock)
	prev := ml.lastHolder
	ml.lastHolder = c.Origin()
	if prev == n.id {
		n.holderHandle(c, m.Lock, m.KnownTS)
		return
	}
	n.Stats.Forwards++
	c.Forward(prev, acqFwd{Lock: m.Lock, Origin: c.Origin(), KnownTS: m.KnownTS})
}

// serveAcqFwd runs at the last holder.
func (n *Node) serveAcqFwd(c transport.Call, from int, m acqFwd) {
	n.holderHandle(c, m.Lock, m.KnownTS)
}

// holderHandle grants the lock if we have released it, or queues the
// request for our release.
func (n *Node) holderHandle(c transport.Call, lock int, know []int32) {
	st := n.lockState(lock)
	switch st.state {
	case lockReleased, lockNone:
		// Token is here and free (lockNone covers the manager-initial
		// state reached via mgrLock bootstrapping).
		st.state = lockNone
		ivs := n.shipIntervals(know)
		relVC := st.relVC
		if relVC == nil {
			relVC = vc.New(n.c.params.Procs)
		}
		c.Reply(acqGrant{Intervals: ivs, VC: relVC.Copy(), nprocs: n.c.params.Procs})
	case lockHolding, lockWaiting:
		if st.pending != nil {
			panic(fmt.Sprintf("dsm: lock %d has two queued requests at node %d", lock, n.id))
		}
		st.pending = c
		st.pendKnow = know
	}
}
