package core

import (
	"fmt"
	"hash/crc32"
	"sync"

	"adsm/internal/mem"
	"adsm/internal/vc"
)

// Page frames. A page's bytes live in a frame, one PageSize buffer. A
// frame only its node holds is private, and the node writes it in place.
// Once a frame is handed out it is shared, and nobody writes it again:
//
//   - a serve (servePage, serveSpanFetch, serveOwnership, grantSW) replies
//     with the frame itself;
//   - an install adopts the frame it received;
//   - every page starts on the cluster's one zero frame.
//
// A holder that stores into a shared frame first moves onto a private copy
// (ownData, ownTwin): the write paths of access and AccessRange, applyDiffs,
// installPage's replay and re-application, and the home's flush apply.
// makeTwin takes a shared frame as the twin as is: the twin is the page as
// of the last release, which is what the frame already holds, and the
// store that follows copies the data, the one copy a twin costs.
//
// A shared frame carries no count and is never pooled; the garbage
// collector frees it when its last holder lets go. freePages holds only
// private buffers, retired twins and replaced copies, for copyFrame to
// reuse. On the simulator a reply hands the server's frame to the
// requester; on tcp the adopted frame is a capped slice of the reply's
// frame body, which the reader allocates per frame.

// copyFrame returns a private copy of src, in a pooled buffer when one is
// free.
func (n *Node) copyFrame(src []byte) []byte {
	if k := len(n.freePages) - 1; k >= 0 {
		b := append(n.freePages[k][:0], src...)
		n.freePages = n.freePages[:k]
		return b
	}
	return mem.Twin(src)
}

// release returns a frame the page lets go of to the pool when it is
// private; a shared frame is dropped.
func (n *Node) release(b []byte, shared bool) {
	if b != nil && !shared {
		n.freePages = append(n.freePages, b)
	}
}

// ownData moves the page's data onto a private copy if its frame is
// shared; every store into ps.data follows it.
func (n *Node) ownData(ps *pageState) {
	if ps.dataShared {
		n.unshare(&ps.data, &ps.dataShared)
	}
}

// ownTwin is ownData for the twin.
func (n *Node) ownTwin(ps *pageState) {
	if ps.twinShared {
		n.unshare(&ps.twin, &ps.twinShared)
	}
}

// unshare swaps a shared frame for a private copy of it.
func (n *Node) unshare(b *[]byte, shared *bool) {
	n.c.frames.verify(*b)
	*b, *shared = n.copyFrame(*b), false
}

// serveFrame hands the page's frame out for a reply, marking it shared,
// with a private copy of its applied vector. A write span whose callback
// blocked (a fault on another page) still writes the frame: that reply
// gets a copy instead. Handler context.
func (n *Node) serveFrame(ps *pageState) ([]byte, vc.VC) {
	b := ps.data
	if ps.spanWrite {
		b = n.copyFrame(b)
	} else {
		ps.dataShared = true
	}
	n.c.frames.share(b)
	return b, ps.applied.Copy()
}

// adopt makes a received frame the page's data, releasing the frame it
// replaces.
func (n *Node) adopt(ps *pageState, data []byte) {
	n.release(ps.data, ps.dataShared)
	ps.data, ps.dataShared = data, true
	n.c.frames.share(data)
}

// dropTwin lets go of the page's twin, pooling it when private.
func (n *Node) dropTwin(ps *pageState) {
	n.release(ps.twin, ps.twinShared)
	ps.twin, ps.twinShared = nil, false
}

// frameLedger checks, in checked builds (checkPageStates), that a shared
// frame is never written: it records each frame's checksum when the frame
// becomes shared, and verify and verifyAll compare. On tcp the nodes of an
// in-process mesh share the ledger, hence the lock.
type frameLedger struct {
	mu   sync.Mutex
	sums map[*byte]frameSum
}

type frameSum struct {
	b   []byte
	sum uint32
}

// share records b as shared; a frame shared again is verified.
func (l *frameLedger) share(b []byte) {
	if !checkPageStates || len(b) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.sums[&b[0]]; ok {
		l.check(b)
		return
	}
	if l.sums == nil {
		l.sums = make(map[*byte]frameSum)
	}
	l.sums[&b[0]] = frameSum{b, crc32.ChecksumIEEE(b)}
}

// verify panics when the shared frame b was written since it was shared.
func (l *frameLedger) verify(b []byte) {
	if !checkPageStates {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.check(b)
}

func (l *frameLedger) check(b []byte) {
	if err := l.sums[&b[0]].mismatch(); err != nil {
		panic(err)
	}
}

// verifyAll reports the first recorded frame that was written.
func (l *frameLedger) verifyAll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.sums {
		if err := f.mismatch(); err != nil {
			return err
		}
	}
	return nil
}

func (f frameSum) mismatch() error {
	if f.b == nil {
		return fmt.Errorf("dsm: a page moved off a frame nobody shared")
	}
	if got := crc32.ChecksumIEEE(f.b); got != f.sum {
		return fmt.Errorf("dsm: shared page frame written after it was handed out (crc %#x, was %#x)", got, f.sum)
	}
	return nil
}
