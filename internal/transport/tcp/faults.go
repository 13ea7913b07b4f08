package tcp

import (
	"time"
)

// FaultInjector perturbs the data plane for fault-tolerance tests. Both
// hooks run on writer goroutines after a frame has been dequeued, so they
// see exactly the frames that would otherwise hit the socket and never
// block protocol code that holds a node's state lock. Implementations must be
// safe for concurrent use.
type FaultInjector interface {
	// DropFrame reports whether the frame from->to should be silently
	// discarded instead of written. lane is the frame's message class
	// (transport.ClassControl or ClassBulk): a pair has one connection,
	// and the class picks the send queue the frame waited in.
	DropFrame(from, to, lane int) bool
	// DelayFrame returns an extra delay to impose before writing the
	// frame (0 = none).
	DelayFrame(from, to, lane int) time.Duration
}

// Sever forcibly closes every connection touching the given node, on both
// ends hosted here — the in-process stand-in for SIGKILLing that rank.
// Read loops on surviving ends observe the broken connection and classify
// it as ErrPeerLost (no bye was seen). Safe to call concurrently with a
// running mesh.
func (rt *Runtime) Sever(node int) {
	rt.eachEnd(func(e *end) {
		if e.owner == node || e.peer == node {
			e.closeQueue()
			e.conn.Close()
		}
	})
}
