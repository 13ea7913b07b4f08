package core

import (
	"fmt"
	"math/bits"

	"adsm/internal/transport"
	"adsm/internal/vc"
)

// Distributed locks, TreadMarks style: each lock has a static manager
// (lock id mod procs) that tracks the last holder and forwards acquire
// requests to it; the grant travels directly from the holder to the
// requester carrying the intervals (write notices) the requester lacks.
//
// A lock can also be held shared (AcquireShared/ReleaseShared, a
// reader-writer lock under LRC). A shared acquire travels the same way —
// manager, then token holder — but the holder keeps the token and only
// grants read permission, which the requester caches after its read
// section ends: later shared acquires on that node send no messages. The
// token holder records every node it granted a read to (nodeLock.readers;
// the manager forwards every request to it, so this is exactly the set of
// shared requests since the last exclusive one) and hands that set over
// with the token. Before the next exclusive holder enters, it revokes every
// reader in one parallel round; a reader answers once its open read
// section has ended, with the intervals the writer lacks and the vector
// clock of its read release, so a read release happens-before the next
// exclusive acquire. A holder that granted reads is downgraded: its own
// next exclusive acquire is still local, but must revoke them first.
//
// The grant-before-token-pass order rests on per-pair FIFO delivery (the
// manager's forwards reach a holder in the order it sent them), which both
// transports provide: a holder always receives the shared requests of a
// reader set before the exclusive request that will revoke it.

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
	if st.state == lockHolding || st.reading {
		panic(fmt.Sprintf("dsm: node %d recursively acquiring lock %d", n.id, lock))
	}

	if st.state == lockReleased {
		// We still hold the token (we were the last holder and nobody has
		// asked for it): reacquire locally, no messages. The manager's
		// last-holder record already names us. Reads we granted meanwhile
		// are revoked from here; requests forwarded to us from now on
		// queue for our release.
		st.state = lockHolding
		readers := st.readers
		st.readers = 0
		n.revokeReaders(lock, readers)
		return
	}

	// A cached read grant is subsumed by the exclusive hold: we skip
	// ourselves in the revoke round below, and a revoke from an earlier
	// writer is answered at once (we are not reading).
	st.cached = false
	st.state = lockWaiting
	mgr := n.c.lockManagerOf(lock)
	resp := n.c.rt.Call(n.proc, mgr, acqReq{Lock: lock, KnownTS: append([]int32(nil), n.knownTS...)}).(acqGrant)
	st.state = lockHolding
	n.ingestIntervals(resp.Intervals)
	n.acceptPushes(resp)
	n.vclock.Join(resp.VC)
	n.revokeReaders(lock, resp.Readers&^(1<<n.id))
}

// revokeReaders takes back every cached read grant in the set, in one
// parallel round, and ingests what each reader knew at its read release.
func (n *Node) revokeReaders(lock int, readers uint64) {
	if readers == 0 {
		return
	}
	know := append([]int32(nil), n.knownTS...)
	reqs := make([]transport.Target, 0, bits.OnesCount64(readers))
	for set := readers; set != 0; set &= set - 1 {
		reqs = append(reqs, transport.Target{To: bits.TrailingZeros64(set), M: acqRevoke{Lock: lock, KnownTS: know}})
	}
	n.Stats.Revokes += int64(len(reqs))
	for _, r := range n.c.rt.Multicall(n.proc, reqs) {
		g := r.(acqGrant)
		n.ingestIntervals(g.Intervals)
		n.acceptPushes(g)
		n.vclock.Join(g.VC)
	}
}

// Release ends the critical section; if another node's acquire is queued
// here, the grant (with piggybacked intervals) goes out immediately.
func (n *Node) Release(lock int) {
	// The release closes the interval so its write notices exist before
	// the lock can move.
	n.closeInterval()
	st := n.lockState(lock)
	if st.state != lockHolding {
		panic(fmt.Sprintf("dsm: node %d releasing lock %d it does not hold exclusively", n.id, lock))
	}
	st.relVC = n.vclock.Copy()
	st.state = lockReleased
	for _, q := range st.pendShared {
		n.grantShared(st, q)
	}
	st.pendShared = st.pendShared[:0]
	if st.pending.c != nil {
		n.passToken(st)
	}
	n.evictKnownDiffs()
}

// AcquireShared obtains the lock for reading: concurrently with other
// readers, exclusive of writers. A cached read grant (or the token, when
// it is here and free) makes it local; otherwise the request goes through
// the manager to the token holder.
func (n *Node) AcquireShared(lock int) {
	n.closeInterval()
	n.Stats.LockAcquires++
	st := n.lockState(lock)
	if st.state == lockHolding || st.reading {
		panic(fmt.Sprintf("dsm: node %d recursively acquiring lock %d shared", n.id, lock))
	}
	if st.cached || st.state == lockReleased {
		n.Stats.SharedLocal++
		st.reading = true
		return
	}
	// The read section counts as open from here: a revoke that overtakes
	// our grant waits for its end. (We are not the token holder, so no
	// forwarded request sees this.)
	st.reading = true
	mgr := n.c.lockManagerOf(lock)
	resp := n.c.rt.Call(n.proc, mgr, acqReq{Lock: lock, Shared: true, KnownTS: append([]int32(nil), n.knownTS...)}).(acqGrant)
	st.cached = true
	n.ingestIntervals(resp.Intervals)
	n.acceptPushes(resp)
	n.vclock.Join(resp.VC)
}

// ReleaseShared ends a read section. The read grant stays cached unless a
// writer's revoke has been waiting for the section to end; a writer queued
// on the token held here gets it now.
func (n *Node) ReleaseShared(lock int) {
	n.closeInterval()
	st := n.lockState(lock)
	if !st.reading {
		panic(fmt.Sprintf("dsm: node %d releasing lock %d it does not hold shared", n.id, lock))
	}
	st.reading = false
	// The read release is a release: it is what the next writer joins.
	st.relVC = append(st.relVC[:0], n.vclock...)
	if st.revoke.c != nil {
		q := st.revoke
		st.revoke = queuedAcq{}
		n.answerRevoke(st, q)
	}
	if st.pending.c != nil && st.state == lockReleased {
		n.passToken(st)
	}
	n.evictKnownDiffs()
}

// answerRevoke gives up this node's read grant: the writer gets the
// intervals it lacks and the vector clock of our last read release.
func (n *Node) answerRevoke(st *nodeLock, q queuedAcq) {
	st.cached = false
	n.grantLock(q, st.relVC, 0)
}

// grantLock replies to a queued acquire with the intervals the requester
// lacks, the diffs it pushes for them (push.go) and the vector clock of
// our release. (Using the release-time snapshot rather than a later clock
// keeps concurrent writes looking concurrent, which the false-sharing
// detection depends on.) An exclusive grant carries the reader set it must
// revoke. Exclusive grants, shared grants and revoke answers all go
// through here.
func (n *Node) grantLock(q queuedAcq, relVC vc.VC, readers uint64) {
	if relVC == nil {
		relVC = vc.New(n.c.params.Procs)
	}
	ivs := n.intervalsSince(q.know)
	diffs, keys, cost := n.pushDiffs(ivs)
	// Diffs made for the push delay the grant, as they would a diffResp.
	q.c.ReplyAfter(cost, acqGrant{Intervals: ivs, VC: relVC.Copy(), Readers: readers, Diffs: diffs, Keys: keys, nprocs: n.c.params.Procs})
}

// grantShared grants read permission from the free token held here; the
// token stays, downgraded by the new reader.
func (n *Node) grantShared(st *nodeLock, q queuedAcq) {
	st.readers |= 1 << q.c.Origin()
	n.grantLock(q, st.relVC, 0)
}

// passToken hands the free token to the queued exclusive request, with
// the set of readers the new holder must revoke.
func (n *Node) passToken(st *nodeLock) {
	q, readers := st.pending, st.readers
	st.pending, st.readers = queuedAcq{}, 0
	st.state = lockNone
	n.grantLock(q, st.relVC, readers)
}

// serveAcqReq runs at the lock manager: forward to the last holder (or
// grant locally when the token is here). A shared request leaves the last
// holder in place: the token does not move for it.
func (n *Node) serveAcqReq(c transport.Call, from int, m acqReq) {
	n.noteKnown(c.Origin(), m.KnownTS)
	ml := n.mgrLock(m.Lock)
	prev := ml.lastHolder
	if !m.Shared {
		ml.lastHolder = c.Origin()
	}
	if prev == n.id {
		n.holderHandle(c, m.Lock, m.Shared, m.KnownTS)
		return
	}
	n.Stats.Forwards++
	c.Forward(prev, acqFwd{Lock: m.Lock, Origin: c.Origin(), Shared: m.Shared, KnownTS: m.KnownTS})
}

// serveAcqFwd runs at the last holder.
func (n *Node) serveAcqFwd(c transport.Call, from int, m acqFwd) {
	n.noteKnown(m.Origin, m.KnownTS)
	n.holderHandle(c, m.Lock, m.Shared, m.KnownTS)
}

// holderHandle grants the lock if the token is here and free, or queues
// the request for our release. A read is granted even while we read
// ourselves; a writer waits for our read section to end.
func (n *Node) holderHandle(c transport.Call, lock int, shared bool, know []int32) {
	st := n.lockState(lock)
	// lockNone covers the manager-initial state reached via mgrLock
	// bootstrapping: the token is here and free.
	free := st.state == lockReleased || st.state == lockNone
	q := queuedAcq{c, know}
	if shared {
		if free {
			n.grantShared(st, q)
		} else {
			st.pendShared = append(st.pendShared, q)
		}
		return
	}
	if st.pending.c != nil {
		panic(fmt.Sprintf("dsm: lock %d has two queued requests at node %d", lock, n.id))
	}
	st.pending = q
	if free && !st.reading {
		n.passToken(st)
	}
}

// serveAcqRevoke runs at a reader: answer now, or once the read section
// that is open (or whose grant is still on its way) has ended.
func (n *Node) serveAcqRevoke(c transport.Call, from int, m acqRevoke) {
	n.noteKnown(c.Origin(), m.KnownTS)
	st := n.lockState(m.Lock)
	q := queuedAcq{c, m.KnownTS}
	if st.reading {
		if st.revoke.c != nil {
			panic(fmt.Sprintf("dsm: lock %d has two revokes queued at node %d", m.Lock, n.id))
		}
		st.revoke = q
		return
	}
	n.answerRevoke(st, q)
}
