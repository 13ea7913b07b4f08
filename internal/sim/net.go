package sim

// The network model: point-to-point messages with a fixed per-message
// latency plus a per-byte cost, calibrated against the paper's measured
// constants (1 ms minimum round trip, 1921 us remote 4 KB page miss).
//
// All protocol traffic is expressed as calls: a blocking request issued by
// a process, answered by a handler on the target node. Handlers run as
// plain events (the "interrupt" model of TreadMarks' SIGIO handler: they
// never block, they mutate node state and reply, forward, or defer).
//
// Net is the simulator implementation of the transport seam
// (transport.Runtime): the deterministic oracle against which the real
// transports (internal/transport/tcp) are checked.

import (
	"fmt"

	"adsm/internal/stats"
	"adsm/internal/transport"
)

// HeaderBytes models the UDP/protocol header charged per message.
const HeaderBytes = transport.HeaderBytes

// NetParams describes the network cost model.
type NetParams = transport.NetParams

// DefaultNetParams reproduces the paper's environment (155 Mbps ATM, UDP):
// smallest-message RTT ~1 ms and 4 KB page fetch ~1921 us.
func DefaultNetParams() NetParams { return transport.DefaultNetParams() }

// Msg is a protocol message. Size reports the payload size in bytes used
// for transfer-time and data-volume accounting; the fixed header is added
// by the network layer.
type Msg = transport.Msg

// Handler services calls addressed to one node. It must not block.
type Handler = transport.Handler

// Target pairs a destination node with a request for Multicall.
type Target = transport.Target

// Net connects n nodes with the given cost model and counts traffic.
// Each node has a single inbound link: concurrent transfers to the same
// receiver serialize (a message's payload occupies the link for its
// transfer time). This is what makes fetching many accumulated diffs
// slower than fetching one page, even when the requests go out in
// parallel.
type Net struct {
	eng      *Engine
	params   NetParams
	handlers []Handler

	// rxBusyUntil[i] is the time node i's inbound link frees up.
	rxBusyUntil []Time

	// Per-node counters, indexed by sending node.
	MsgsSent  []int64
	BytesSent []int64
}

// NewNet creates a network of n nodes on engine e.
func NewNet(e *Engine, n int, params NetParams) *Net {
	return &Net{
		eng:         e,
		params:      params,
		handlers:    make([]Handler, n),
		rxBusyUntil: make([]Time, n),
		MsgsSent:    make([]int64, n),
		BytesSent:   make([]int64, n),
	}
}

// The simulator is the default runtime for clusters that do not configure
// an explicit transport: registering here (rather than having the engine
// import the simulator) keeps internal/core free of any concrete
// simulator network type.
func init() {
	transport.DefaultRuntime = func(procs int, net NetParams, eventLimit uint64) transport.Runtime {
		e := NewEngine()
		e.MaxEvents = eventLimit
		return NewNet(e, procs, net)
	}
}

// Register installs the call handler for node id.
func (nt *Net) Register(id int, h Handler) { nt.handlers[id] = h }

// Params returns the cost model in use.
func (nt *Net) Params() NetParams { return nt.params }

// Engine returns the engine driving this network.
func (nt *Net) Engine() *Engine { return nt.eng }

// LocalNodes lists the hosted node ids: the simulator always hosts all of
// them.
func (nt *Net) LocalNodes() []int {
	ids := make([]int, len(nt.handlers))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Spawn registers body as node id's simulated process.
func (nt *Net) Spawn(id int, name string, body func(p transport.Proc)) {
	p := nt.eng.Spawn(name, func(sp *Proc) { body(sp) })
	if p.ID() != id {
		panic(fmt.Sprintf("sim: spawned node %d as proc %d (Spawn must follow node order)", id, p.ID()))
	}
}

// Run executes the simulation until every process has finished.
func (nt *Net) Run() error { return nt.eng.Run() }

// Now returns the current virtual time.
func (nt *Net) Now() Time { return nt.eng.Now() }

// After schedules fn to run in handler context at Now()+d. The node is
// ignored: the event loop runs one thing at a time.
func (nt *Net) After(node int, d Time, fn func()) { nt.eng.After(d, fn) }

// Count adds the messages and bytes (payload+headers) all nodes sent into
// s. The simulator moves references, not frames: it has no wire counters.
func (nt *Net) Count(s *stats.Counters) {
	for i := range nt.MsgsSent {
		s.Messages += nt.MsgsSent[i]
		s.DataBytes += nt.BytesSent[i]
	}
}

// latency is the uncontended one-way delivery delay for a payload of the
// given size (used by tests; actual deliveries add receiver-link queueing).
func (nt *Net) latency(payload int) Time {
	return nt.params.FixedDelay + Time(int64(payload+HeaderBytes)*nt.params.PerBytePico/1000)
}

// charge records one message of the given payload size from node `from`.
func (nt *Net) charge(from, payload int) {
	nt.MsgsSent[from]++
	nt.BytesSent[from] += int64(payload + HeaderBytes)
}

// transmit models one message: fixed propagation, then the payload
// occupies the receiver's inbound link for its transfer time. fn runs when
// the message has fully arrived.
func (nt *Net) transmit(from, to, payload int, fn func()) {
	if from == to {
		nt.eng.After(nt.params.LocalDelay, fn)
		return
	}
	nt.charge(from, payload)
	transfer := Time(int64(payload+HeaderBytes) * nt.params.PerBytePico / 1000)
	headArrives := nt.eng.Now() + nt.params.FixedDelay
	start := headArrives
	if nt.rxBusyUntil[to] > start {
		start = nt.rxBusyUntil[to]
	}
	done := start + transfer
	nt.rxBusyUntil[to] = done
	nt.eng.After(done-nt.eng.Now(), fn)
}

// callState tracks one blocking (multi-)call issued by a process.
type callState struct {
	p       *Proc
	pending int
	results []Msg
}

// Call is the handler-side view of one in-flight request. The handler (or
// whoever it hands the Call to) must eventually Reply exactly once.
type Call struct {
	net    *Net
	st     *callState
	idx    int
	origin int // node that issued the call
	cur    int // node currently holding the call (for Reply/Forward accounting)
}

// Origin returns the node that issued the call.
func (c *Call) Origin() int { return c.origin }

// deliver sends m from -> to and invokes to's handler on arrival.
func (nt *Net) deliver(c *Call, from, to int, m Msg) {
	c.cur = to
	nt.transmit(from, to, m.Size(), func() {
		h := nt.handlers[to]
		if h == nil {
			panic(fmt.Sprintf("sim: call from node %d to node %d: no handler registered", from, to))
		}
		h(c, from, m)
	})
}

// proc unwraps the caller-side context handed through the transport seam.
func (nt *Net) proc(p transport.Proc) *Proc {
	sp, ok := p.(*Proc)
	if !ok {
		panic(fmt.Sprintf("sim: caller %T is not a simulated process", p))
	}
	return sp
}

// Call sends m to node `to` on behalf of process p (node p.ID()) and blocks
// until the reply arrives; it returns the reply.
func (nt *Net) Call(p transport.Proc, to int, m Msg) Msg {
	sp := nt.proc(p)
	st := &callState{p: sp, pending: 1, results: make([]Msg, 1)}
	c := &Call{net: nt, st: st, idx: 0, origin: sp.ID()}
	nt.deliver(c, sp.ID(), to, m)
	sp.park("call")
	return st.results[0]
}

// Multicall issues all requests simultaneously and blocks until every
// reply has arrived (elapsed time is the maximum of the individual calls,
// modelling TreadMarks' parallel diff requests). Results are positional.
func (nt *Net) Multicall(p transport.Proc, reqs []Target) []Msg {
	if len(reqs) == 0 {
		return nil
	}
	sp := nt.proc(p)
	st := &callState{p: sp, pending: len(reqs), results: make([]Msg, len(reqs))}
	for i, r := range reqs {
		c := &Call{net: nt, st: st, idx: i, origin: sp.ID()}
		nt.deliver(c, sp.ID(), r.To, r.M)
	}
	sp.park("multicall")
	return st.results
}

// Reply answers the call with m; the reply travels from the node currently
// holding the call back to the caller. May be called from a handler or from
// process code (e.g. a lock holder releasing in its own execution).
func (c *Call) Reply(m Msg) { c.ReplyAfter(0, m) }

// ReplyAfter answers after a modelled processing cost d (e.g. diff
// creation time on the responder).
func (c *Call) ReplyAfter(d Time, m Msg) {
	nt := c.net
	from, to := c.cur, c.origin
	nt.eng.After(d, func() {
		nt.transmit(from, to, m.Size(), func() {
			st := c.st
			st.results[c.idx] = m
			st.pending--
			if st.pending == 0 {
				nt.eng.resumeProc(st.p)
			}
		})
	})
}

// Forward hands the call to another node with a new request message (e.g. a
// home node forwarding an ownership request to the current owner). The next
// handler sees `from` = the forwarding node. The eventual Reply goes
// directly to the original caller.
func (c *Call) Forward(to int, m Msg) { c.ForwardAfter(0, to, m) }

// ForwardAfter forwards after a modelled processing cost.
func (c *Call) ForwardAfter(d Time, to int, m Msg) {
	from := c.cur
	c.net.eng.After(d, func() {
		c.net.deliver(c, from, to, m)
	})
}
