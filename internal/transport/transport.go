// Package transport defines the seam between the DSM protocol engine and
// the substrate that moves its messages: the Transport interface (blocking
// Call/Multicall on the caller side, Reply/ReplyAfter/Forward on the
// handler side, per-node handler registration) and the Runtime interface
// that couples a Transport with application-process execution and
// reports its traffic counters.
//
// Two implementations exist: the deterministic discrete-event simulator
// (internal/sim, the test oracle calibrated to the paper's 155 Mbps ATM
// network) and a real TCP runtime (internal/transport/tcp) where each node
// is a goroutine-or-process endpoint speaking length-prefixed binary frames
// over net.Conn. Protocol code in internal/core compiles against these
// interfaces only, so the same policies drive both substrates.
package transport

import (
	"time"

	"adsm/internal/stats"
)

// Time is protocol time in nanoseconds: virtual time under the simulator,
// wall-clock time since run start under real transports.
type Time int64

// Convenient time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts transport time to a time.Duration for reporting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return t.Duration().String() }

// Seconds reports the time in (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// HeaderBytes models the UDP/protocol header charged per message by the
// traffic counters. Both transports charge Msg.Size()+HeaderBytes per
// message so protocol-level accounting is comparable across substrates;
// the TCP runtime's real framing cost is reported separately, in the wire
// counters Runtime.Count fills.
const HeaderBytes = 40

// NetParams describes the simulated network cost model. It configures the
// simulator transport; real transports ignore it (their costs are real).
type NetParams struct {
	// FixedDelay is the one-way per-message latency excluding payload.
	FixedDelay Time
	// PerBytePico is the transfer cost per payload byte, in picoseconds.
	PerBytePico int64
	// LocalDelay is charged when a node "sends" to itself (no message is
	// counted; this models a local procedure call).
	LocalDelay Time
}

// DefaultNetParams reproduces the paper's environment (155 Mbps ATM, UDP):
// smallest-message RTT ~1 ms and 4 KB page fetch ~1921 us.
func DefaultNetParams() NetParams {
	return NetParams{
		FixedDelay:  490 * Microsecond,
		PerBytePico: 220_000, // 220 ns/byte effective user bandwidth
		LocalDelay:  2 * Microsecond,
	}
}

// Msg is a protocol message. Size reports the payload size in bytes used
// for transfer-time and data-volume accounting; the fixed header is added
// by the transport layer. Messages that cross a real wire additionally
// need a registered codec (see RegisterCodec).
type Msg interface {
	Size() int
}

// Handler services calls addressed to one node. It runs in that node's
// context — excluding the node's application body and its other handlers,
// but not other nodes — and must not block: it replies (possibly after a
// modelled processing cost), forwards the call to another node, or stores
// the Call to reply later (deferred grant).
type Handler func(c Call, from int, m Msg)

// Call is the handler-side view of one in-flight request. The handler (or
// whoever it hands the Call to) must eventually Reply exactly once, in the
// context of the node currently holding the call; ReplyAfter and
// ForwardAfter run their deferred action in that node's context too.
type Call interface {
	// Origin returns the node that issued the call.
	Origin() int
	// Reply answers the call with m; the reply travels from the node
	// currently holding the call back to the caller.
	Reply(m Msg)
	// ReplyAfter answers after a modelled processing cost d (e.g. diff
	// creation time on the responder).
	ReplyAfter(d Time, m Msg)
	// Forward hands the call to another node with a new request message.
	// The next handler sees from = the forwarding node; the eventual
	// Reply goes directly to the original caller.
	Forward(to int, m Msg)
	// ForwardAfter forwards after a modelled processing cost.
	ForwardAfter(d Time, to int, m Msg)
}

// Target pairs a destination node with a request for Multicall.
type Target struct {
	To int
	M  Msg
}

// Proc is one node's application execution context: the handle a transport
// needs to identify and (for Advance) charge the calling process.
type Proc interface {
	// ID returns the node id.
	ID() int
	// Now returns the process-local time.
	Now() Time
	// Advance models local computation taking d of time.
	Advance(d Time)
}

// Transport moves protocol messages between nodes.
// Calls block the issuing process until every reply has arrived; handlers
// run in "interrupt" context (the TreadMarks SIGIO model) and must not
// block. A transport failure (lost peer, unregistered destination) fails
// the call loudly — the caller's process aborts and Runtime.Run returns
// the error — rather than deadlocking the caller.
type Transport interface {
	// Register installs the call handler for node id.
	Register(id int, h Handler)
	// Call sends m to node `to` on behalf of p and blocks until the reply
	// arrives; it returns the reply.
	Call(p Proc, to int, m Msg) Msg
	// Multicall issues all requests simultaneously and blocks until every
	// reply has arrived. Results are positional.
	Multicall(p Proc, reqs []Target) []Msg
	// After schedules fn to run in node's handler context after d: fn
	// runs as node, excluding that node's body and handlers.
	After(node int, d Time, fn func())
}

// Runtime couples a Transport with process execution: it runs one
// application body per hosted node and reports completion. A runtime may
// host all nodes (the simulator, the in-process TCP mesh) or a subset
// (one endpoint of a multi-process TCP deployment).
type Runtime interface {
	Transport
	// LocalNodes lists the node ids hosted by this runtime instance, in
	// ascending order.
	LocalNodes() []int
	// Spawn registers body as node id's application process. id must be
	// one of LocalNodes; bodies start when Run is called.
	Spawn(id int, name string, body func(p Proc))
	// Now returns the current time.
	Now() Time
	// Run executes all spawned bodies plus message delivery until every
	// local body has finished, returning an error if a body panicked or
	// the transport failed.
	Run() error
	// Count adds the hosted nodes' traffic into s: Messages and DataBytes
	// (Msg.Size()+HeaderBytes per message) always; on a runtime that moves
	// real frames also the wire counters and the per-class slices, which it
	// sets rather than adds.
	Count(s *stats.Counters)
}

// DefaultRuntime builds the default runtime for a cluster when no explicit
// factory is configured. The simulator package installs itself here at
// init time, so any program that links internal/sim (everything does — it
// is the deterministic oracle) gets the simulator by default without
// internal/core depending on it.
var DefaultRuntime func(procs int, net NetParams, eventLimit uint64) Runtime
