package adsm

import (
	"time"

	"adsm/internal/core"
	"adsm/internal/sim"
)

// Worker is one processor's handle onto the DSM: shared-memory accessors,
// synchronization, and a virtual clock. All accesses go through the
// coherence protocol — a read or write may fault and trigger page or diff
// traffic exactly as the paper describes.
type Worker struct {
	n *core.Node
}

// ID returns this processor's id (0..Procs-1).
func (w *Worker) ID() int { return w.n.ID() }

// Procs returns the cluster size.
func (w *Worker) Procs() int { return w.n.Procs() }

// Now returns this processor's virtual time since the run started.
func (w *Worker) Now() time.Duration { return w.n.Proc().Now().Duration() }

// Compute models local computation taking d of virtual time. Use it to
// charge the cost of work done on private data.
func (w *Worker) Compute(d time.Duration) { w.n.Compute(sim.Time(d)) }

// Lock acquires the named lock, pulling in the write notices of all
// preceding intervals (lazy release consistency).
func (w *Worker) Lock(id int) { w.n.Acquire(id) }

// Unlock releases the named lock.
func (w *Worker) Unlock(id int) { w.n.Release(id) }

// RLock acquires the named lock shared: any number of workers may hold it
// for reading at once, and no worker holds it exclusively meanwhile. It
// pulls in the same write notices Lock would. The read grant stays cached
// on this worker's node after RUnlock, so repeated RLocks cost no messages
// until a Lock on another node revokes the grant; that Lock waits for the
// read section to end and sees every write ordered before it.
func (w *Worker) RLock(id int) { w.n.AcquireShared(id) }

// RUnlock ends a read section begun with RLock.
func (w *Worker) RUnlock(id int) { w.n.ReleaseShared(id) }

// Barrier waits for all processors and makes all prior writes visible.
func (w *Worker) Barrier() { w.n.Barrier() }

// BarrierCkpt is Barrier plus a durable checkpoint of the step just
// finished: each node snapshots the dirty pages of its partition, ships
// the delta to its ring buddy, and commits with one extra barrier round.
// All processors must call it at the same step. Without checkpoint stores
// (see RunRecoverable) it is a plain Barrier.
func (w *Worker) BarrierCkpt(step int) { w.n.BarrierCkpt(int64(step)) }

// RecoverSync is the collective first call of a recovering incarnation:
// it agrees on the newest recoverable checkpoint, restores it, and
// returns the recovered step (-1 when nothing was checkpointed). Resume
// the step loop at the returned step + 1. RunRecoverable calls it for
// you.
func (w *Worker) RecoverSync() int { return int(w.n.RecoverSync()) }

// Prefetch declares that the given windows — typically of several
// different shared arrays — are about to be read: the span-granularity
// coherence hint. The engine fetches all of their invalid pages right
// here, batched into one overlapped Multicall, so the reads that follow
// find them valid instead of paying one blocking fault per page. When
// there is nothing profitable to batch the hint is a no-op and the faults
// fire on access exactly as without it. Either way the hint never changes
// what the program computes, only when its coherence traffic travels
// (TestPrefetchEquivalence pins this).
func (w *Worker) Prefetch(wins ...Window) {
	rs := make([]core.Range, len(wins))
	for i, win := range wins {
		rs[i] = core.Range{Addr: win.addr, Size: win.size}
	}
	w.n.PrefetchRanges(rs)
}
