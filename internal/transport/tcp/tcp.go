// Package tcp implements the transport seam over real TCP connections:
// each node is a goroutine-or-process endpoint speaking binary frames (a
// fixed 32-byte header plus the message's hand-rolled binary body — every
// message internal/core registers has one — with a gob escape frame for
// codecs registered without binary hooks) over net.Conn. One Runtime
// instance hosts one or more nodes; hosting all nodes in one process gives an in-process loopback mesh
// (every pair of nodes still talks through a real socket), hosting a
// subset gives one endpoint of a genuine multi-process deployment (the
// dsmnode command).
//
// Where the simulator parks a virtual process and resumes it from the
// event queue, this runtime blocks the calling goroutine on a channel that
// the reply frame completes. Handlers preserve the simulator's "interrupt
// model" invariant — exactly one thing mutates protocol state at a time —
// via a per-runtime state lock: application bodies hold it except while
// blocked in a call, and frame dispatch takes it around each handler.
// Transport failures (a lost peer, an unregistered destination) fail every
// affected call loudly instead of deadlocking the caller: the call panics,
// the body's recover converts it into a Run error.
package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adsm/internal/transport"
)

// Options configures a TCP runtime endpoint.
type Options struct {
	// Procs is the cluster size.
	Procs int
	// Local lists the node ids hosted by this endpoint. Nil hosts all of
	// them (the in-process mesh).
	Local []int
	// Addrs gives every node's listen address, indexed by node id. Nil
	// picks loopback addresses automatically (all nodes must be local).
	Addrs []string
	// Lanes is the number of data connections per ordered node pair:
	// 1 = the classic single shared connection, 2 (the default) adds a
	// dedicated bulk lane so large page/diff payloads never head-of-line
	// block a latency-critical barrier release or ownership grant. Lane
	// selection is keyed off each message's codec class
	// (transport.ClassOf); every participant must use the same value.
	Lanes int
	// OneSided adds one more connection per pair — the region lane — and
	// enables the RDMA-style one-sided read path: region requests are
	// served from the peer's registered memory region on a dedicated
	// goroutine, bypassing the handler and the protocol state lock. Every
	// participant must use the same value.
	OneSided bool
	// Timescale multiplies the modelled compute/processing delays
	// (Worker.Compute, diff-creation reply latency, the SW ownership
	// quantum) into real sleeps. 0 skips the sleeps entirely — protocol
	// behaviour is preserved, runs finish as fast as the wire allows.
	Timescale float64
	// DialTimeout bounds how long New waits for the peer mesh to come up
	// (default 20s).
	DialTimeout time.Duration
	// Fingerprint is an opaque summary of the run configuration (app,
	// protocol, home policy, procs, inputs). Peers exchange it in the
	// hello handshake and refuse to mesh on a mismatch — turning a
	// silently-wrong multi-process run into a clear startup error. Empty
	// fingerprints always match.
	Fingerprint string
	// Epoch is the membership epoch carried in the hello handshake. Every
	// mesh incarnation has one; after a node loss the survivors re-mesh at
	// epoch+1, so a stale process from the previous incarnation cannot
	// rejoin by accident. Epoch -1 is the wildcard used by a recovering
	// node (`dsmnode -recover`): it adopts whatever epoch the peers it
	// meshes with are at.
	Epoch int64
	// LeaseTerm enables membership leases: every endpoint heartbeats each
	// peer on the control lane every LeaseTerm/3 and declares a peer dead
	// (transport.ErrLeaseExpired) when no frame at all arrives from it for
	// a full term. Zero disables heartbeats and lease monitoring (the
	// default — loss is then detected only by connection errors). Every
	// participant must use the same value; the handshake enforces it.
	LeaseTerm time.Duration
	// Faults, when non-nil, perturbs outgoing frames (drop/delay) for
	// fault-injection tests. See FaultInjector.
	Faults FaultInjector
	// ForceGob carries every message in the gob escape frame instead of
	// its binary codec — the debugging/CI knob that exercises the fallback
	// path end to end. Mixed meshes interoperate (the body kind is per
	// frame), so one endpoint forcing gob does not require the others to.
	ForceGob bool
}

// frame ops.
const (
	opHello = 1 + iota // dialer introduces itself on a fresh connection
	opCall             // a request (fresh or forwarded)
	opReply            // the answer travelling back to the call's origin
	opBye              // orderly shutdown: this endpoint's bodies finished
	opPing             // control-lane heartbeat refreshing the peer's lease
)

// lane indices. The control lane always exists; the bulk lane exists when
// Lanes > 1; the region lane (index == Lanes) exists when OneSided is set.
const (
	laneControl = 0
	laneBulk    = 1
)

// body kinds: how the bytes after the fixed header are encoded.
const (
	bodyNone   = iota // no body (bye)
	bodyBinary        // hand-rolled binary codec; header names it by wire id
	bodyGob           // the escape op: gob of the message's wire value
	bodyErr           // a transport-level failure string (error reply)
	bodyHello         // handshake: tag + codec digest + epoch + lease + error
)

// The unit on the wire is a fixed 32-byte binary header followed by a
// body. Messages with AppendWire/DecodeWire hooks travel as
// bodyBinary: varint metadata followed by the raw payload bytes, written
// to the socket as one vectored write (net.Buffers) so a page's 4 KB
// never passes through an intermediate copy. Messages without binary
// hooks fall back transparently to a bodyGob escape frame — a fresh gob
// encoding of their wire value — so the two formats coexist per frame
// and every protocol keeps working regardless of which messages have
// binary codecs. Header layout, little-endian:
//
//	[0:4)   body length
//	[4]     op (hello/call/reply/bye)
//	[5]     body kind
//	[6:8)   wire id (bodyBinary only; see transport.WireIDOf)
//	[8:12)  from node
//	[12:16) to node
//	[16:20) origin node (survives forwarding)
//	[20:28) call id
//	[28:32) multicall slot
//
// Traffic accounting still charges Msg.Size()+HeaderBytes (the protocol
// model); the real framing cost is surfaced separately by the WireStats
// counters (frames, wire bytes, encode time).
const headerLen = 32

// maxFrame guards the reader against corrupt length prefixes.
const maxFrame = 256 << 20

// frame is the in-memory form of one wire frame.
type frame struct {
	Op     uint8
	From   int    // sending node
	To     int    // receiving node
	Origin int    // node that issued the call (survives forwarding)
	CallID uint64 // caller-assigned id
	Idx    int    // multicall slot
	Err    string // transport-level failure travelling back to the caller
	Tag    string // hello only: the dialer's config fingerprint
	Digest uint64 // hello only: the frozen binary codec set (transport.WireDigest)
	Epoch  int64  // hello only: membership epoch (-1 = wildcard, adopt the peer's)
	Lease  int64  // hello only: lease term in nanoseconds (must agree)
	M      transport.Msg
}

// frameBuf is one pooled encode buffer: the header+metadata bytes and the
// iovec list handed to the socket. Writer goroutines recycle it after the
// socket write completes — never earlier, because bufs aliases message
// payloads and b is the frame being sent.
type frameBuf struct {
	b    []byte      // header + metadata (or the full gob/err/hello body)
	bufs net.Buffers // [0] = b, then the payload slices
}

var framePool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} },
}

// recycle clears the payload references (so the pool never pins pages)
// and returns the buffer to the pool.
func (fb *frameBuf) recycle() {
	for i := range fb.bufs {
		fb.bufs[i] = nil
	}
	fb.bufs = fb.bufs[:0]
	framePool.Put(fb)
}

// outFrame is one encoded frame queued for a writer goroutine.
type outFrame struct {
	fb   *frameBuf
	wire int // total bytes that will hit the socket (header + body)
}

// appendWriter adapts gob's stream interface to an append buffer.
type appendWriter struct{ b *[]byte }

func (w appendWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// encodeFrame renders f into a pooled buffer. On the binary hot path it
// performs zero steady-state allocations: header and metadata go into the
// pooled buffer, payload slices are referenced, not copied. forceGob
// routes every message through the gob escape frame (the debugging/CI
// knob that exercises the fallback).
func encodeFrame(f *frame, forceGob bool) (outFrame, error) {
	fb := framePool.Get().(*frameBuf)
	b := fb.b[:headerLen]
	bufs := append(fb.bufs[:0], nil) // slot 0 reserved for header+metadata
	kind := byte(bodyNone)
	var wireID uint16
	switch {
	case f.M != nil:
		c, ok := transport.CodecOf(f.M)
		if !ok {
			fb.recycle()
			return outFrame{}, fmt.Errorf("tcp: message %T has no registered codec", f.M)
		}
		if id, isBin := transport.WireIDOf(f.M); isBin && !forceGob {
			kind, wireID = bodyBinary, id
			b, bufs = c.AppendWire(f.M, b, bufs)
		} else {
			kind = bodyGob
			v, err := transport.EncodeMsg(f.M)
			if err != nil {
				fb.recycle()
				return outFrame{}, err
			}
			if err := gob.NewEncoder(appendWriter{&b}).Encode(&v); err != nil {
				fb.recycle()
				return outFrame{}, err
			}
		}
	case f.Err != "" && f.Op != opHello:
		kind = bodyErr
		b = append(b, f.Err...)
	case f.Op == opHello:
		kind = bodyHello
		b = transport.AppendUvarint(b, uint64(len(f.Tag)))
		b = append(b, f.Tag...)
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], f.Digest)
		b = append(b, u64[:]...)
		binary.LittleEndian.PutUint64(u64[:], uint64(f.Epoch))
		b = append(b, u64[:]...)
		binary.LittleEndian.PutUint64(u64[:], uint64(f.Lease))
		b = append(b, u64[:]...)
		b = transport.AppendUvarint(b, uint64(len(f.Err)))
		b = append(b, f.Err...)
	}
	bodyLen := len(b) - headerLen
	for _, p := range bufs {
		bodyLen += len(p)
	}
	binary.LittleEndian.PutUint32(b[0:], uint32(bodyLen))
	b[4] = f.Op
	b[5] = kind
	binary.LittleEndian.PutUint16(b[6:], wireID)
	binary.LittleEndian.PutUint32(b[8:], uint32(f.From))
	binary.LittleEndian.PutUint32(b[12:], uint32(f.To))
	binary.LittleEndian.PutUint32(b[16:], uint32(f.Origin))
	binary.LittleEndian.PutUint64(b[20:], f.CallID)
	binary.LittleEndian.PutUint32(b[28:], uint32(f.Idx))
	fb.b = b
	bufs[0] = b
	fb.bufs = bufs
	return outFrame{fb: fb, wire: headerLen + bodyLen}, nil
}

// writeOut performs one synchronous frame write (handshake paths; the data
// plane goes through the per-end writer goroutines) and recycles the
// buffer.
func writeOut(w io.Writer, of outFrame) error {
	wb := of.fb.bufs // copy of the slice header; WriteTo consumes its copy
	_, err := wb.WriteTo(w)
	of.fb.recycle()
	return err
}

// readFrame reads and decodes one frame. Binary bodies are decoded by
// slicing the frame blob (the message owns the blob afterwards); gob
// bodies go through the registered wire-value codec.
func readFrame(r io.Reader) (*frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n > maxFrame {
		return nil, fmt.Errorf("tcp: frame length %d exceeds limit", n)
	}
	var body []byte
	if n > 0 {
		body = make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
	}
	f := &frame{
		Op:     hdr[4],
		From:   int(binary.LittleEndian.Uint32(hdr[8:])),
		To:     int(binary.LittleEndian.Uint32(hdr[12:])),
		Origin: int(binary.LittleEndian.Uint32(hdr[16:])),
		CallID: binary.LittleEndian.Uint64(hdr[20:]),
		Idx:    int(binary.LittleEndian.Uint32(hdr[28:])),
	}
	switch hdr[5] {
	case bodyNone:
	case bodyBinary:
		id := binary.LittleEndian.Uint16(hdr[6:])
		c, ok := transport.WireCodecByID(id)
		if !ok {
			return nil, fmt.Errorf("tcp: frame names unknown wire codec id %d", id)
		}
		m, err := c.DecodeWire(body)
		if err != nil {
			return nil, fmt.Errorf("tcp: decoding %s frame: %w", c.Name, err)
		}
		f.M = m
	case bodyGob:
		var v any
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
			return nil, fmt.Errorf("tcp: decoding gob frame: %w", err)
		}
		m, err := transport.DecodeMsg(v)
		if err != nil {
			return nil, err
		}
		f.M = m
	case bodyErr:
		f.Err = string(body)
	case bodyHello:
		wr := transport.NewWireReader(body)
		f.Tag = string(wr.Bytes(wr.Count(1)))
		f.Digest = binary.LittleEndian.Uint64(wr.Bytes(8))
		f.Epoch = int64(binary.LittleEndian.Uint64(wr.Bytes(8)))
		f.Lease = int64(binary.LittleEndian.Uint64(wr.Bytes(8)))
		f.Err = string(wr.Bytes(wr.Count(1)))
		if err := wr.Close(); err != nil {
			return nil, fmt.Errorf("tcp: malformed hello: %w", err)
		}
	default:
		return nil, fmt.Errorf("tcp: unknown frame body kind %d", hdr[5])
	}
	return f, nil
}

// callState tracks one blocking (multi-)call issued by a local process.
type callState struct {
	results []transport.Msg
	pending int
	done    chan struct{}
	err     error
}

// regionCall tracks one blocking one-sided read. Region replies bypass
// the ordinary call table: they are matched under their own small mutex so
// completing one never contends with the protocol state lock.
type regionCall struct {
	done chan struct{}
	m    transport.Msg
	ok   bool
	err  error
}

// end is this runtime's end of one lane of the connection bundle between
// one hosted node and one peer node. Protocol code never blocks on the
// socket: sends enqueue onto an unbounded queue drained by a dedicated
// writer goroutine, so a full TCP buffer can never wedge a handler that
// holds the state lock.
type end struct {
	rt          *Runtime
	owner, peer int
	lane        int
	conn        net.Conn

	qmu    sync.Mutex
	qcond  *sync.Cond
	q      []outFrame
	qhwm   int64 // peak queue depth over the run
	closed bool

	byeOnce sync.Once
	bye     chan struct{}

	// lastHeard is the time (unix nanos) a frame last arrived on this
	// end, refreshed by the reader goroutine and read by the lease
	// monitor. Only control-lane ends are monitored (pings flow there).
	lastHeard int64
}

// sawBye reports whether the peer's orderly bye already arrived on this
// end — the discriminator between a clean shutdown racing the socket
// teardown and a genuine crash.
func (e *end) sawBye() bool {
	select {
	case <-e.bye:
		return true
	default:
		return false
	}
}

// Runtime is a TCP transport endpoint implementing transport.Runtime.
type Runtime struct {
	procs    int
	local    []int
	addrs    []string
	scale    float64
	start    time.Time
	dialT    time.Duration
	fprnt    string
	forceGob bool
	lanes    int  // data lanes per ordered pair (1 or 2)
	oneSided bool // region lane present (lane index == lanes)
	nlanes   int  // total connections per ordered pair
	lease    time.Duration
	faults   FaultInjector
	epoch    int64         // membership epoch (atomic: wildcard dials adopt it)
	closed   chan struct{} // closed by Close: stops heartbeat/monitor goroutines
	closeOne sync.Once

	// mu is the protocol state lock: bodies hold it except while blocked
	// in a call; frame dispatch and timers take it around handlers.
	mu       sync.Mutex
	handlers []transport.Handler
	calls    map[uint64]*callState
	nextCall uint64
	msgs     []int64
	bytes    []int64
	failErr  error
	finished bool

	// Wire-efficiency counters (transport.WireStats): the real framing
	// cost next to the protocol model's Msg.Size() accounting. Counted in
	// sendLocked, so they cover exactly the data-plane frames (calls,
	// replies, error replies), not the handshake/goodbye control frames.
	wireFrames int64
	wireBytes  int64
	encodeNS   int64
	laneBytes  []int64 // per-lane wire bytes, same coverage as wireBytes

	// One-sided read machinery. regCalls matches region replies under its
	// own mutex (lock order: mu, then regMu — regionLoop takes regMu
	// alone). The reg* counters are the region server's share of the
	// traffic/wire accounting, atomics because the server goroutine never
	// touches mu.
	regMu         sync.Mutex
	regCalls      map[uint64]*regionCall
	regions       []func(from int, req transport.Msg) (transport.Msg, bool)
	regMsgs       int64 // atomic: model messages charged by the region server
	regBytes      int64 // atomic: model bytes charged by the region server
	regWireFrames int64 // atomic: real frames sent by the region server
	regWireBytes  int64 // atomic: real bytes sent by the region server

	isLocal   []bool
	ends      [][][]*end // [local node][peer node][lane]
	listeners []net.Listener
	bodies    map[int]func(transport.Proc)
	runGate   chan struct{}
	bodyWG    sync.WaitGroup

	errMu    sync.Mutex
	bodyErrs []error
	leaseErr error // lease expiry recorded lock-free by monitorLeases
}

// New builds the endpoint: binds the local listeners, establishes the full
// mesh (a bundle of lane connections per pair of nodes with a hosted end;
// the higher-numbered node dials the lower once per lane), and returns
// once every expected peer is connected.
func New(o Options) (*Runtime, error) {
	if o.Procs < 1 {
		return nil, fmt.Errorf("tcp: need at least one node")
	}
	local := o.Local
	if local == nil {
		for i := 0; i < o.Procs; i++ {
			local = append(local, i)
		}
	}
	local = append([]int(nil), local...)
	sort.Ints(local)
	isLocal := make([]bool, o.Procs)
	for _, id := range local {
		if id < 0 || id >= o.Procs {
			return nil, fmt.Errorf("tcp: local node %d out of range", id)
		}
		if isLocal[id] {
			return nil, fmt.Errorf("tcp: local node %d listed twice", id)
		}
		isLocal[id] = true
	}
	if o.Addrs == nil && len(local) != o.Procs {
		return nil, fmt.Errorf("tcp: hosting a node subset requires explicit Addrs")
	}
	if o.Addrs != nil && len(o.Addrs) != o.Procs {
		return nil, fmt.Errorf("tcp: need %d addresses, got %d", o.Procs, len(o.Addrs))
	}
	dialT := o.DialTimeout
	if dialT == 0 {
		dialT = 20 * time.Second
	}
	lanes := o.Lanes
	if lanes == 0 {
		lanes = 2
	}
	if lanes < 1 || lanes > 2 {
		return nil, fmt.Errorf("tcp: lanes must be 1 (single connection) or 2 (control+bulk), got %d", lanes)
	}
	nlanes := lanes
	if o.OneSided {
		nlanes++
	}

	rt := &Runtime{
		procs:     o.Procs,
		local:     local,
		scale:     o.Timescale,
		start:     time.Now(),
		dialT:     dialT,
		fprnt:     o.Fingerprint,
		forceGob:  o.ForceGob,
		lanes:     lanes,
		oneSided:  o.OneSided,
		nlanes:    nlanes,
		lease:     o.LeaseTerm,
		faults:    o.Faults,
		epoch:     o.Epoch,
		closed:    make(chan struct{}),
		handlers:  make([]transport.Handler, o.Procs),
		calls:     make(map[uint64]*callState),
		regCalls:  make(map[uint64]*regionCall),
		regions:   make([]func(int, transport.Msg) (transport.Msg, bool), o.Procs),
		msgs:      make([]int64, o.Procs),
		bytes:     make([]int64, o.Procs),
		laneBytes: make([]int64, nlanes),
		isLocal:   isLocal,
		ends:      make([][][]*end, o.Procs),
		bodies:    make(map[int]func(transport.Proc)),
		runGate:   make(chan struct{}),
	}
	for _, id := range local {
		rt.ends[id] = make([][]*end, o.Procs)
		for peer := range rt.ends[id] {
			rt.ends[id][peer] = make([]*end, nlanes)
		}
	}

	// Copy: the listener loop rewrites auto-selected addresses, and the
	// caller's slice may be shared (e.g. two endpoints in one test).
	addrs := make([]string, o.Procs)
	copy(addrs, o.Addrs)
	// Bind every hosted node's listener first so peers can dial us while
	// we dial them.
	for _, id := range local {
		laddr := addrs[id]
		if laddr == "" {
			laddr = "127.0.0.1:0"
		}
		l, err := net.Listen("tcp", laddr)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("tcp: node %d listen %s: %w", id, laddr, err)
		}
		addrs[id] = l.Addr().String()
		rt.listeners = append(rt.listeners, l)
	}
	rt.addrs = addrs

	if err := rt.connectMesh(); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// Addrs reports the effective per-node listen addresses (useful in the
// in-process mode, where they are picked automatically).
func (rt *Runtime) Addrs() []string { return append([]string(nil), rt.addrs...) }

// connectMesh establishes every lane connection with a hosted end: for
// each node pair the higher-numbered node dials the lower once per lane
// (the hello's Idx field names the lane), and each hosted node accepts the
// matching bundle from every higher-numbered peer. The hello ack carries
// the acceptor's lane count in Idx, so a -lanes/-onesided mismatch between
// participants is a clear startup error rather than a hung mesh.
func (rt *Runtime) connectMesh() error {
	type res struct {
		e   *end
		err error
	}
	expect := 0
	ch := make(chan res, rt.procs*rt.procs*rt.nlanes)

	// Accept side: every hosted node accepts from higher-numbered peers.
	// Each accepted connection handshakes on its own goroutine under a
	// read deadline, so a connecter that never sends hello (or sends
	// garbage) is dropped without stalling the accept loop or failing the
	// mesh — it simply never counts toward the expected bundle.
	for li, id := range rt.local {
		want := (rt.procs - 1 - id) * rt.nlanes
		expect += want
		l := rt.listeners[li]
		id := id
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return // listener closed (mesh done or torn down)
				}
				go func(conn net.Conn) {
					conn.SetReadDeadline(time.Now().Add(rt.dialT))
					hello, err := readFrame(conn)
					if err != nil {
						conn.Close() // silent or malformed connecter: not a peer
						return
					}
					if hello.Op != opHello || hello.To != id {
						conn.Close()
						ch <- res{err: fmt.Errorf("tcp: node %d received a frame addressed to node %d (op %d) instead of a hello — check that every participant uses the same -addrs order", id, hello.To, hello.Op)}
						return
					}
					ack := &frame{Op: opHello, From: id, To: hello.From, Idx: rt.nlanes,
						Tag: rt.fprnt, Digest: transport.WireDigest(), Lease: int64(rt.lease)}
					ourEpoch := atomic.LoadInt64(&rt.epoch)
					switch {
					case hello.Tag != "" && rt.fprnt != "" && hello.Tag != rt.fprnt:
						ack.Err = fmt.Sprintf("tcp: node %d: peer node %d runs a different configuration: ours %q, theirs %q",
							id, hello.From, rt.fprnt, hello.Tag)
					case hello.Digest != transport.WireDigest():
						ack.Err = fmt.Sprintf("tcp: node %d: peer node %d disagrees on the binary wire codec set (digest %x vs %x) — peers must be built from the same message definitions",
							id, hello.From, transport.WireDigest(), hello.Digest)
					case hello.Idx < 0 || hello.Idx >= rt.nlanes:
						ack.Err = fmt.Sprintf("tcp: node %d: peer node %d opened lane %d but this endpoint runs %d connections per pair — every participant must use the same -lanes and -onesided settings",
							id, hello.From, hello.Idx, rt.nlanes)
					case hello.Lease != int64(rt.lease):
						ack.Err = fmt.Sprintf("tcp: node %d: peer node %d uses lease term %v, ours %v — every participant must use the same -lease",
							id, hello.From, time.Duration(hello.Lease), rt.lease)
					case hello.Epoch != -1 && ourEpoch != -1 && hello.Epoch != ourEpoch:
						ack.Err = fmt.Sprintf("tcp: node %d: peer node %d is at membership epoch %d, ours %d — a stale process from a previous incarnation must not rejoin",
							id, hello.From, hello.Epoch, ourEpoch)
					}
					if ack.Err == "" && ourEpoch == -1 && hello.Epoch != -1 {
						// Recovering endpoint: adopt the established epoch.
						atomic.CompareAndSwapInt64(&rt.epoch, -1, hello.Epoch)
					}
					ack.Epoch = atomic.LoadInt64(&rt.epoch)
					if of, err := encodeFrame(ack, rt.forceGob); err == nil {
						writeOut(conn, of)
					}
					if ack.Err != "" {
						conn.Close()
						ch <- res{err: fmt.Errorf("%s", ack.Err)}
						return
					}
					conn.SetReadDeadline(time.Time{})
					ch <- res{e: rt.newEnd(id, hello.From, hello.Idx, conn)}
				}(conn)
			}
		}()
	}

	// Dial side: every hosted node dials every lower-numbered peer, once
	// per lane. The whole dial+handshake sequence retries with exponential
	// backoff until the dial deadline: peers come up in any order, and
	// during recovery a dial can land on a peer's dying previous
	// incarnation, which resets the connection mid-handshake and clears
	// once the peer re-meshes. Handshake rejections (wrong configuration,
	// stale epoch) are immediately fatal — recovery drivers that expect
	// teardown races retry mesh formation as a whole.
	for _, id := range rt.local {
		for peer := 0; peer < id; peer++ {
			for lane := 0; lane < rt.nlanes; lane++ {
				expect++
				id, peer, lane := id, peer, lane
				go func() {
					deadline := time.Now().Add(rt.dialT)
					backoff := 10 * time.Millisecond
					for {
						e, fatal, err := rt.dialLane(id, peer, lane)
						if err == nil {
							ch <- res{e: e}
							return
						}
						if fatal || time.Now().After(deadline) {
							ch <- res{err: err}
							return
						}
						time.Sleep(backoff)
						if backoff *= 2; backoff > time.Second {
							backoff = time.Second
						}
					}
				}()
			}
		}
	}

	timeout := time.After(rt.dialT + time.Second)
	for k := 0; k < expect; k++ {
		select {
		case r := <-ch:
			if r.err != nil {
				return r.err
			}
			if rt.ends[r.e.owner][r.e.peer][r.e.lane] != nil {
				return fmt.Errorf("tcp: node %d: duplicate lane %d connection from node %d", r.e.owner, r.e.lane, r.e.peer)
			}
			rt.ends[r.e.owner][r.e.peer][r.e.lane] = r.e
		case <-timeout:
			return fmt.Errorf("tcp: mesh incomplete after %v (are all peers running?)", rt.dialT)
		}
	}
	// Start the frame pumps. Region-lane reads are served by regionLoop,
	// the dedicated server goroutine that never touches the state lock.
	for _, id := range rt.local {
		for _, lanes := range rt.ends[id] {
			for _, e := range lanes {
				if e == nil {
					continue
				}
				go e.writeLoop()
				if rt.oneSided && e.lane == rt.lanes {
					go e.regionLoop()
				} else {
					go e.readLoop()
				}
			}
		}
	}
	return nil
}

// dialLane performs one dial+handshake attempt for a lane connection.
// fatal distinguishes handshake rejections and mismatches (wrong
// fingerprint, codec set, lane count, lease term, stale epoch) from
// transient connection-level conditions the caller should retry: the peer
// not listening yet, or its dying previous incarnation resetting the
// connection mid-handshake.
func (rt *Runtime) dialLane(id, peer, lane int) (e *end, fatal bool, err error) {
	conn, err := net.DialTimeout("tcp", rt.addrs[peer], time.Second)
	if err != nil {
		return nil, false, fmt.Errorf("tcp: node %d dial node %d (%s): %w", id, peer, rt.addrs[peer], err)
	}
	of, err := encodeFrame(&frame{Op: opHello, From: id, To: peer, Idx: lane,
		Tag: rt.fprnt, Digest: transport.WireDigest(),
		Epoch: atomic.LoadInt64(&rt.epoch), Lease: int64(rt.lease)}, rt.forceGob)
	if err == nil {
		err = writeOut(conn, of)
	}
	if err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("tcp: node %d hello to node %d: %w", id, peer, err)
	}
	conn.SetReadDeadline(time.Now().Add(rt.dialT))
	ack, err := readFrame(conn)
	if err != nil || ack.Op != opHello {
		conn.Close()
		return nil, false, fmt.Errorf("tcp: node %d: no hello ack from node %d: %v", id, peer, err)
	}
	if ack.Err != "" {
		conn.Close()
		return nil, true, fmt.Errorf("tcp: node %d: node %d rejected the mesh: %s", id, peer, ack.Err)
	}
	if ack.Tag != "" && rt.fprnt != "" && ack.Tag != rt.fprnt {
		conn.Close()
		return nil, true, fmt.Errorf("tcp: node %d: peer node %d runs a different configuration: ours %q, theirs %q",
			id, peer, rt.fprnt, ack.Tag)
	}
	if ack.Digest != transport.WireDigest() {
		conn.Close()
		return nil, true, fmt.Errorf("tcp: node %d: peer node %d disagrees on the binary wire codec set (digest %x vs %x) — peers must be built from the same message definitions",
			id, peer, transport.WireDigest(), ack.Digest)
	}
	if ack.Idx != rt.nlanes {
		conn.Close()
		return nil, true, fmt.Errorf("tcp: node %d: peer node %d runs %d connections per pair, ours %d — every participant must use the same -lanes and -onesided settings",
			id, peer, ack.Idx, rt.nlanes)
	}
	if ack.Lease != int64(rt.lease) {
		conn.Close()
		return nil, true, fmt.Errorf("tcp: node %d: peer node %d uses lease term %v, ours %v — every participant must use the same -lease",
			id, peer, time.Duration(ack.Lease), rt.lease)
	}
	ourEpoch := atomic.LoadInt64(&rt.epoch)
	switch {
	case ourEpoch == -1 && ack.Epoch != -1:
		// Recovering endpoint: adopt the established epoch.
		atomic.CompareAndSwapInt64(&rt.epoch, -1, ack.Epoch)
	case ack.Epoch != -1 && ack.Epoch != ourEpoch:
		conn.Close()
		return nil, true, fmt.Errorf("tcp: node %d: peer node %d is at membership epoch %d, ours %d — a stale process from a previous incarnation must not rejoin",
			id, peer, ack.Epoch, ourEpoch)
	}
	conn.SetReadDeadline(time.Time{})
	return rt.newEnd(id, peer, lane, conn), false, nil
}

func (rt *Runtime) newEnd(owner, peer, lane int, conn net.Conn) *end {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	e := &end{rt: rt, owner: owner, peer: peer, lane: lane, conn: conn, bye: make(chan struct{})}
	e.qcond = sync.NewCond(&e.qmu)
	atomic.StoreInt64(&e.lastHeard, time.Now().UnixNano())
	return e
}

// --- the send path (never blocks protocol code) ---

func (e *end) enqueue(of outFrame) {
	e.qmu.Lock()
	if !e.closed {
		e.q = append(e.q, of)
		if n := int64(len(e.q)); n > e.qhwm {
			e.qhwm = n
		}
		e.qcond.Signal()
	} else {
		of.fb.recycle()
	}
	e.qmu.Unlock()
}

// depth reports the current queue depth and its high-water mark.
func (e *end) depth() (cur, hwm int64) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return int64(len(e.q)), e.qhwm
}

// flushed reports whether the queue has fully drained.
func (e *end) flushed() bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.q) == 0
}

func (e *end) closeQueue() {
	e.qmu.Lock()
	e.closed = true
	e.qcond.Signal()
	e.qmu.Unlock()
}

func (e *end) writeLoop() {
	for {
		e.qmu.Lock()
		for len(e.q) == 0 && !e.closed {
			e.qcond.Wait()
		}
		if len(e.q) == 0 && e.closed {
			e.qmu.Unlock()
			return
		}
		of := e.q[0]
		e.q[0] = outFrame{}
		e.q = e.q[1:]
		e.qmu.Unlock()
		// Fault injection happens here, after dequeue: the injector sees
		// exactly the frames about to hit the socket and never runs under
		// the state lock.
		if inj := e.rt.faults; inj != nil {
			if d := inj.DelayFrame(e.owner, e.peer, e.lane); d > 0 {
				time.Sleep(d)
			}
			if inj.DropFrame(e.owner, e.peer, e.lane) {
				of.fb.recycle()
				continue
			}
		}
		// One vectored write per frame: header+metadata and the payload
		// slices go to the socket as a single writev. The pooled buffer is
		// recycled only after the write completes (payloads alias it and
		// live protocol data until then).
		if err := writeOut(e.conn, of); err != nil {
			if !e.rt.shuttingDown() && !e.sawBye() {
				e.rt.fail(fmt.Errorf("tcp: node %d write to node %d: %w (%v)",
					e.owner, e.peer, transport.ErrPeerLost{Node: e.peer}, err))
			}
			return
		}
	}
}

// --- the receive path ---

func (e *end) readLoop() {
	<-e.rt.runGate // handlers exist once Run starts; frames wait in the socket
	r := bufio.NewReaderSize(e.conn, 64<<10)
	for {
		f, err := readFrame(r)
		if err != nil {
			// Classify before recording our own bye observation: a socket
			// error after the peer's orderly bye is a normal teardown race,
			// anything else means the peer crashed.
			orderly := e.sawBye()
			e.byeOnce.Do(func() { close(e.bye) })
			if !orderly && !e.rt.shuttingDown() {
				e.rt.fail(fmt.Errorf("tcp: node %d lost connection to node %d: %w (%v)",
					e.owner, e.peer, transport.ErrPeerLost{Node: e.peer}, err))
			}
			return
		}
		atomic.StoreInt64(&e.lastHeard, time.Now().UnixNano())
		switch f.Op {
		case opBye:
			e.byeOnce.Do(func() { close(e.bye) })
			continue
		case opPing:
			continue // heartbeat: lastHeard already refreshed
		}
		e.rt.dispatch(f)
	}
}

// regionLoop pumps the region lane: incoming requests are served straight
// from the owner's registered region on this goroutine — no handler, no
// state lock — and incoming replies complete the matching OneSidedRead.
// The reply's Idx carries the served/fallback flag (1 = served from the
// region and charged, 0 = not available, uncharged).
func (e *end) regionLoop() {
	rt := e.rt
	<-rt.runGate // regions are registered before Run starts
	r := bufio.NewReaderSize(e.conn, 64<<10)
	for {
		f, err := readFrame(r)
		if err != nil {
			orderly := e.sawBye()
			e.byeOnce.Do(func() { close(e.bye) })
			if !orderly && !rt.shuttingDown() {
				rt.fail(fmt.Errorf("tcp: node %d lost region lane to node %d: %w (%v)",
					e.owner, e.peer, transport.ErrPeerLost{Node: e.peer}, err))
			}
			return
		}
		atomic.StoreInt64(&e.lastHeard, time.Now().UnixNano())
		switch f.Op {
		case opBye:
			e.byeOnce.Do(func() { close(e.bye) })
		case opPing:
			// heartbeat: lastHeard already refreshed
		case opCall:
			var resp transport.Msg
			var ok bool
			if serve := rt.regions[e.owner]; serve != nil {
				resp, ok = serve(f.From, f.M)
			}
			idx := 0
			if ok {
				idx = 1
				// The server's half of the model charge: the pair the
				// handler path would have charged for serving this read.
				atomic.AddInt64(&rt.regMsgs, 1)
				atomic.AddInt64(&rt.regBytes, int64(resp.Size()+transport.HeaderBytes))
			} else {
				resp = nil // fall back uncharged; requester retries via the handler path
			}
			rf := &frame{Op: opReply, From: e.owner, To: f.From, Origin: f.From, CallID: f.CallID, Idx: idx, M: resp}
			of, err := encodeFrame(rf, rt.forceGob)
			if err != nil {
				rt.fail(fmt.Errorf("tcp: node %d encoding region reply to node %d: %v", e.owner, f.From, err))
				return
			}
			atomic.AddInt64(&rt.regWireFrames, 1)
			atomic.AddInt64(&rt.regWireBytes, int64(of.wire))
			e.enqueue(of)
		case opReply:
			rt.regMu.Lock()
			rc := rt.regCalls[f.CallID]
			delete(rt.regCalls, f.CallID)
			rt.regMu.Unlock()
			if rc != nil {
				rc.m, rc.ok = f.M, f.Idx == 1
				close(rc.done)
			}
		default:
			rt.fail(fmt.Errorf("tcp: node %d received op %d on the region lane from node %d", e.owner, f.Op, e.peer))
			return
		}
	}
}

// dispatch routes one arrived call or reply frame. The message was
// already decoded in readFrame (in the reader goroutine, off the state
// lock).
func (rt *Runtime) dispatch(f *frame) {
	m := f.M
	rt.mu.Lock()
	defer rt.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			// A handler panicking with an error value is a protocol raising
			// a typed condition (e.g. core.ErrGCUnsupported): wrap it so
			// errors.Is matches through Run's error. Anything else is a bug
			// and keeps its stack trace.
			if err, ok := r.(error); ok {
				rt.failLocked(fmt.Errorf("tcp: handler on node %d: %w", f.To, err))
			} else {
				rt.failLocked(fmt.Errorf("tcp: handler on node %d panicked: %v\n%s", f.To, r, debug.Stack()))
			}
		}
	}()
	switch f.Op {
	case opCall:
		h := rt.handlers[f.To]
		if h == nil {
			rt.replyErrLocked(f, fmt.Sprintf("tcp: call from node %d to node %d: no handler registered", f.From, f.To))
			return
		}
		c := &call{rt: rt, origin: f.Origin, id: f.CallID, idx: f.Idx, cur: f.To}
		h(c, f.From, m)
	case opReply:
		var err error
		if f.Err != "" {
			err = fmt.Errorf("%s", f.Err)
		}
		rt.completeLocked(f.CallID, f.Idx, m, err)
	default:
		rt.failLocked(fmt.Errorf("tcp: node %d received unknown frame op %d", f.To, f.Op))
	}
}

// replyErrLocked sends a transport-level failure back to a call's origin.
func (rt *Runtime) replyErrLocked(f *frame, msg string) {
	if rt.isLocal[f.Origin] {
		rt.completeLocked(f.CallID, f.Idx, nil, fmt.Errorf("%s", msg))
		return
	}
	rt.sendLocked(&frame{Op: opReply, From: f.To, To: f.Origin, CallID: f.CallID, Idx: f.Idx, Err: msg}, nil)
}

// completeLocked records one slot of a pending call.
func (rt *Runtime) completeLocked(id uint64, idx int, m transport.Msg, err error) {
	st := rt.calls[id]
	if st == nil {
		return // call already failed and was torn down
	}
	if err != nil {
		st.err = err
		delete(rt.calls, id)
		close(st.done)
		return
	}
	st.results[idx] = m
	st.pending--
	if st.pending == 0 {
		delete(rt.calls, id)
		close(st.done)
	}
}

// laneOf selects the data lane for a message: bulk-class payload replies
// go to the bulk lane when it exists, everything else (requests, barrier
// and lock traffic, gob escapes, error replies) stays on the control lane
// so per-pair control ordering is a single FIFO connection.
func (rt *Runtime) laneOf(m transport.Msg) int {
	if rt.lanes > 1 && transport.ClassOf(m) == transport.ClassBulk {
		return laneBulk
	}
	return laneControl
}

// sendLocked encodes and enqueues one frame between two distinct nodes,
// charging the sender's traffic counters when it carries a message and
// the wire-efficiency counters always.
func (rt *Runtime) sendLocked(f *frame, m transport.Msg) {
	e := rt.ends[f.From]
	var ee *end
	lane := rt.laneOf(m)
	if e != nil && e[f.To] != nil {
		ee = e[f.To][lane]
	}
	if ee == nil {
		panic(fmt.Sprintf("tcp: no connection from node %d to node %d", f.From, f.To))
	}
	if m != nil {
		f.M = m
		rt.msgs[f.From]++
		rt.bytes[f.From] += int64(m.Size() + transport.HeaderBytes)
	}
	start := time.Now()
	of, err := encodeFrame(f, rt.forceGob)
	if err != nil {
		panic(fmt.Sprintf("tcp: encoding frame from node %d to node %d: %v", f.From, f.To, err))
	}
	rt.encodeNS += time.Since(start).Nanoseconds()
	rt.wireFrames++
	rt.wireBytes += int64(of.wire)
	rt.laneBytes[lane] += int64(of.wire)
	ee.enqueue(of)
}

// deliverLocalLocked dispatches a call whose sender and receiver are the
// same node without touching the wire (uncharged, like the simulator's
// local procedure call).
func (rt *Runtime) deliverLocalLocked(from, to, origin int, id uint64, idx int, m transport.Msg) {
	h := rt.handlers[to]
	if h == nil {
		rt.replyErrLocked(&frame{From: from, To: to, Origin: origin, CallID: id, Idx: idx},
			fmt.Sprintf("tcp: call from node %d to node %d: no handler registered", from, to))
		return
	}
	c := &call{rt: rt, origin: origin, id: id, idx: idx, cur: to}
	h(c, from, m)
}

// --- transport.Call ---

// call is the handler-side view of one in-flight request.
type call struct {
	rt     *Runtime
	origin int
	id     uint64
	idx    int
	cur    int // node currently holding the call
}

func (c *call) Origin() int { return c.origin }

func (c *call) Reply(m transport.Msg) { c.replyLocked(m) }

// replyLocked runs with the state lock held (all handler and process
// contexts hold it).
func (c *call) replyLocked(m transport.Msg) {
	if c.cur == c.origin {
		c.rt.completeLocked(c.id, c.idx, m, nil)
		return
	}
	c.rt.sendLocked(&frame{Op: opReply, From: c.cur, To: c.origin, CallID: c.id, Idx: c.idx}, m)
}

func (c *call) ReplyAfter(d transport.Time, m transport.Msg) {
	rt := c.rt
	if real := rt.scaled(d); real > 0 {
		time.AfterFunc(real, func() {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			if rt.failErr != nil {
				return
			}
			c.replyLocked(m)
		})
		return
	}
	c.replyLocked(m)
}

func (c *call) Forward(to int, m transport.Msg) {
	from := c.cur
	c.cur = to
	if to == from {
		c.rt.deliverLocalLocked(from, to, c.origin, c.id, c.idx, m)
		return
	}
	c.rt.sendLocked(&frame{Op: opCall, From: from, To: to, Origin: c.origin, CallID: c.id, Idx: c.idx}, m)
}

func (c *call) ForwardAfter(d transport.Time, to int, m transport.Msg) {
	rt := c.rt
	if real := rt.scaled(d); real > 0 {
		time.AfterFunc(real, func() {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			if rt.failErr != nil {
				return
			}
			c.Forward(to, m)
		})
		return
	}
	c.Forward(to, m)
}

// --- transport.Transport ---

// Register installs the call handler for node id.
func (rt *Runtime) Register(id int, h transport.Handler) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.isLocal[id] {
		panic(fmt.Sprintf("tcp: node %d is not hosted by this endpoint", id))
	}
	rt.handlers[id] = h
}

// Call sends m to node `to` on behalf of p and blocks until the reply
// arrives.
func (rt *Runtime) Call(p transport.Proc, to int, m transport.Msg) transport.Msg {
	return rt.Multicall(p, []transport.Target{{To: to, M: m}})[0]
}

// Multicall issues all requests simultaneously and blocks until every
// reply has arrived. Results are positional. The calling goroutine holds
// the state lock (the body invariant); it is released while blocked.
func (rt *Runtime) Multicall(p transport.Proc, reqs []transport.Target) []transport.Msg {
	if len(reqs) == 0 {
		return nil
	}
	if rt.failErr != nil {
		panic(rt.failErr)
	}
	from := p.ID()
	rt.nextCall++
	id := rt.nextCall
	st := &callState{results: make([]transport.Msg, len(reqs)), pending: len(reqs), done: make(chan struct{})}
	rt.calls[id] = st
	for i, r := range reqs {
		if r.To < 0 || r.To >= rt.procs {
			rt.completeLocked(id, i, nil, fmt.Errorf("tcp: call to node %d: no such node", r.To))
			continue
		}
		if r.To == from {
			rt.deliverLocalLocked(from, r.To, from, id, i, r.M)
			continue
		}
		rt.sendLocked(&frame{Op: opCall, From: from, To: r.To, Origin: from, CallID: id, Idx: i}, r.M)
	}
	rt.mu.Unlock()
	<-st.done
	rt.mu.Lock()
	if st.err != nil {
		panic(st.err)
	}
	return st.results
}

// After schedules fn to run in handler context after d (scaled). Like
// ReplyAfter, it keeps firing after this endpoint's bodies finish — a
// deferred grant may be what a still-running peer is blocked on — and
// stops only when the runtime is poisoned.
func (rt *Runtime) After(d transport.Time, fn func()) {
	real := rt.scaled(d)
	time.AfterFunc(real, func() {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if rt.failErr != nil {
			return
		}
		fn()
	})
}

func (rt *Runtime) scaled(d transport.Time) time.Duration {
	if d <= 0 || rt.scale <= 0 {
		return 0
	}
	return time.Duration(float64(d) * rt.scale)
}

// TotalMsgs reports the messages sent by the hosted nodes.
func (rt *Runtime) TotalMsgs() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var s int64
	for _, v := range rt.msgs {
		s += v
	}
	return s + atomic.LoadInt64(&rt.regMsgs)
}

// TotalBytes reports the bytes (payload+headers) sent by the hosted nodes.
func (rt *Runtime) TotalBytes() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var s int64
	for _, v := range rt.bytes {
		s += v
	}
	return s + atomic.LoadInt64(&rt.regBytes)
}

// WireFrames reports the data-plane frames sent (transport.WireStats).
func (rt *Runtime) WireFrames() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.wireFrames + atomic.LoadInt64(&rt.regWireFrames)
}

// WireBytes reports the real bytes (header+body) put on the wire.
func (rt *Runtime) WireBytes() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.wireBytes + atomic.LoadInt64(&rt.regWireBytes)
}

// WireEncodeNanos reports cumulative frame-encode time.
func (rt *Runtime) WireEncodeNanos() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.encodeNS
}

// LaneBytes reports the real wire bytes per lane (control, bulk, region in
// lane order). Region-server replies are folded into the region lane.
func (rt *Runtime) LaneBytes() []int64 {
	rt.mu.Lock()
	out := append([]int64(nil), rt.laneBytes...)
	rt.mu.Unlock()
	if rt.oneSided {
		out[rt.lanes] += atomic.LoadInt64(&rt.regWireBytes)
	}
	return out
}

// LaneQueueDepth reports the frames currently queued per lane, summed over
// every peer end.
func (rt *Runtime) LaneQueueDepth() []int64 {
	out := make([]int64, rt.nlanes)
	rt.eachEnd(func(e *end) {
		cur, _ := e.depth()
		out[e.lane] += cur
	})
	return out
}

// LaneQueueHWM reports, per lane, the deepest any single per-end send
// queue ever got.
func (rt *Runtime) LaneQueueHWM() []int64 {
	out := make([]int64, rt.nlanes)
	rt.eachEnd(func(e *end) {
		_, hwm := e.depth()
		if hwm > out[e.lane] {
			out[e.lane] = hwm
		}
	})
	return out
}

func (rt *Runtime) eachEnd(fn func(*end)) {
	for _, id := range rt.local {
		for _, lanes := range rt.ends[id] {
			for _, e := range lanes {
				if e != nil {
					fn(e)
				}
			}
		}
	}
}

// --- transport.OneSided ---

// OneSidedEnabled reports whether the region lane exists on this mesh.
func (rt *Runtime) OneSidedEnabled() bool { return rt.oneSided }

// RegisterRegion installs the region server for a hosted node. serve runs
// on the region lane's reader goroutines, concurrently with handlers and
// bodies; it must synchronize its own reads. Must be called before Run.
func (rt *Runtime) RegisterRegion(node int, serve func(from int, req transport.Msg) (transport.Msg, bool)) {
	if !rt.isLocal[node] {
		panic(fmt.Sprintf("tcp: node %d is not hosted by this endpoint", node))
	}
	rt.regions[node] = serve
}

// OneSidedRead performs one blocking region-read round-trip. The caller
// holds the state lock (body context); it is released while blocked, like
// any call. ok=false means the peer could not serve from its region (or
// the lane is unavailable): nothing was charged and the caller should fall
// back to the ordinary handler path.
func (rt *Runtime) OneSidedRead(p transport.Proc, to int, req transport.Msg) (transport.Msg, bool) {
	if !rt.oneSided {
		return nil, false
	}
	from := p.ID()
	if to == from || to < 0 || to >= rt.procs {
		return nil, false
	}
	if rt.failErr != nil {
		panic(rt.failErr)
	}
	ee := rt.ends[from][to][rt.lanes]
	if ee == nil {
		return nil, false
	}
	rt.nextCall++
	id := rt.nextCall
	rc := &regionCall{done: make(chan struct{})}
	rt.regMu.Lock()
	rt.regCalls[id] = rc
	rt.regMu.Unlock()
	f := &frame{Op: opCall, From: from, To: to, Origin: from, CallID: id, M: req}
	start := time.Now()
	of, err := encodeFrame(f, rt.forceGob)
	if err != nil {
		panic(fmt.Sprintf("tcp: encoding region read from node %d to node %d: %v", from, to, err))
	}
	rt.encodeNS += time.Since(start).Nanoseconds()
	rt.wireFrames++
	rt.wireBytes += int64(of.wire)
	rt.laneBytes[rt.lanes] += int64(of.wire)
	ee.enqueue(of)
	rt.mu.Unlock()
	<-rc.done
	rt.mu.Lock()
	if rc.err != nil {
		panic(rc.err)
	}
	if rc.ok {
		// The requester's half of the model charge: the request the
		// handler path would have sent for this read.
		rt.msgs[from]++
		rt.bytes[from] += int64(req.Size() + transport.HeaderBytes)
	}
	return rc.m, rc.ok
}

// --- transport.Runtime ---

// LocalNodes lists the hosted node ids.
func (rt *Runtime) LocalNodes() []int { return append([]int(nil), rt.local...) }

// Now returns the wall-clock time since the endpoint came up.
func (rt *Runtime) Now() transport.Time { return transport.Time(time.Since(rt.start)) }

// Spawn registers body as node id's application process.
func (rt *Runtime) Spawn(id int, name string, body func(p transport.Proc)) {
	if !rt.isLocal[id] {
		panic(fmt.Sprintf("tcp: node %d is not hosted by this endpoint", id))
	}
	rt.bodies[id] = body
}

// Run executes the spawned bodies (each under the state lock, released
// while blocked) and the frame pumps until every local body has finished,
// then performs the orderly goodbye with every peer.
func (rt *Runtime) Run() error {
	rt.start = time.Now() // Elapsed excludes the mesh dial window and app setup
	close(rt.runGate)
	if rt.lease > 0 {
		// Leases start counting now, not at mesh formation: app setup
		// between New and Run must not eat into the first term.
		stamp := time.Now().UnixNano()
		rt.eachEnd(func(e *end) { atomic.StoreInt64(&e.lastHeard, stamp) })
		go rt.heartbeat()
		go rt.monitorLeases()
	}
	for id, body := range rt.bodies {
		id, body := id, body
		p := &proc{rt: rt, id: id}
		rt.bodyWG.Add(1)
		go func() {
			defer rt.bodyWG.Done()
			defer func() {
				if r := recover(); r != nil {
					// Bodies panic with the state lock held (transport
					// failures are raised after the call relocks).
					rt.mu.Unlock()
					var err error
					if e, ok := r.(error); ok {
						err = fmt.Errorf("tcp: node %d: %w", id, e)
					} else {
						err = fmt.Errorf("tcp: node %d: %v", id, r)
					}
					rt.errMu.Lock()
					rt.bodyErrs = append(rt.bodyErrs, err)
					rt.errMu.Unlock()
					rt.fail(err)
				}
			}()
			rt.mu.Lock()
			body(p)
			rt.mu.Unlock()
		}()
	}
	rt.bodyWG.Wait()

	rt.mu.Lock()
	rt.finished = true
	failed := rt.failErr
	rt.mu.Unlock()
	if failed == nil {
		// A lease expiry detected while the bodies were still running may
		// not have reached failErr yet (fail blocks on the body-held state
		// lock); the monitor records it lock-free so it is seen here.
		rt.errMu.Lock()
		failed = rt.leaseErr
		rt.errMu.Unlock()
	}

	if failed == nil {
		rt.goodbye()
	}
	rt.Close()

	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	if len(rt.bodyErrs) > 0 {
		return rt.bodyErrs[0]
	}
	if failed != nil {
		return failed
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.failErr
}

// heartbeat keeps every peer's lease on this endpoint's liveness fresh:
// an opPing on each control-lane end every LeaseTerm/3, encoded and
// enqueued directly — no state lock, no traffic counters (heartbeats are
// membership overhead, not protocol traffic).
func (rt *Runtime) heartbeat() {
	t := time.NewTicker(rt.lease / 3)
	defer t.Stop()
	for {
		select {
		case <-rt.closed:
			return
		case <-t.C:
		}
		rt.eachEnd(func(e *end) {
			if e.lane != laneControl || e.sawBye() {
				return
			}
			if of, err := encodeFrame(&frame{Op: opPing, From: e.owner, To: e.peer}, rt.forceGob); err == nil {
				e.enqueue(of)
			}
		})
	}
}

// monitorLeases declares a peer dead when nothing — heartbeat or data —
// has arrived from it on the control lane for a full lease term. This
// catches wedged-but-connected peers (SIGSTOP, livelock) that a socket
// error never would.
func (rt *Runtime) monitorLeases() {
	t := time.NewTicker(rt.lease / 4)
	defer t.Stop()
	for {
		select {
		case <-rt.closed:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		var lost *end
		rt.eachEnd(func(e *end) {
			if e.lane != laneControl || e.sawBye() {
				return
			}
			if now-atomic.LoadInt64(&e.lastHeard) > int64(rt.lease) {
				lost = e
			}
		})
		if lost != nil {
			err := fmt.Errorf("tcp: node %d: %w", lost.owner, transport.ErrLeaseExpired{Node: lost.peer})
			// Record the expiry under errMu first: bodies hold the state
			// lock while running, so fail() below may block past the run's
			// orderly completion — Run re-checks leaseErr after the bodies
			// finish so a detected expiry is never lost to that race.
			rt.errMu.Lock()
			if rt.leaseErr == nil {
				rt.leaseErr = err
			}
			rt.errMu.Unlock()
			rt.fail(err) // poison pending calls (no-op if already finished)
			return
		}
	}
}

// Epoch reports the endpoint's membership epoch. For a recovering
// endpoint built with Epoch: -1, this is the epoch adopted from the mesh
// during the handshake.
func (rt *Runtime) Epoch() int64 { return atomic.LoadInt64(&rt.epoch) }

// goodbye flushes every send queue, announces completion to every peer,
// and waits (bounded) until every peer has announced theirs — a node must
// keep serving pages and locks until the whole cluster is done with it.
func (rt *Runtime) goodbye() {
	deadline := time.Now().Add(rt.dialT)
	rt.eachEnd(func(e *end) {
		if of, err := encodeFrame(&frame{Op: opBye, From: e.owner, To: e.peer}, rt.forceGob); err == nil {
			e.enqueue(of)
		}
	})
	timedOut := false
	rt.eachEnd(func(e *end) {
		if timedOut {
			return
		}
		select {
		case <-e.bye:
		case <-time.After(time.Until(deadline)):
			timedOut = true // peer vanished after our work was done: not our failure
		}
	})
	if timedOut {
		return
	}
	// Let the last queued replies drain before tearing the sockets down.
	rt.eachEnd(func(e *end) {
		for !e.flushed() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	})
}

// Close tears down every socket and listener. Safe to call more than once;
// Run calls it on the way out.
func (rt *Runtime) Close() {
	rt.closeOne.Do(func() { close(rt.closed) })
	for _, l := range rt.listeners {
		l.Close()
	}
	for _, id := range rt.local {
		if rt.ends[id] == nil {
			continue
		}
		for _, lanes := range rt.ends[id] {
			for _, e := range lanes {
				if e != nil {
					e.closeQueue()
					e.conn.Close()
				}
			}
		}
	}
}

// fail aborts every pending call and poisons the runtime.
func (rt *Runtime) fail(err error) {
	rt.mu.Lock()
	rt.failLocked(err)
	rt.mu.Unlock()
}

func (rt *Runtime) failLocked(err error) {
	// A run that already completed orderly cannot be failed retroactively:
	// teardown noise (late lease expiry, peers closing sockets) arriving
	// after the last body returned is not this run's failure.
	if rt.failErr != nil || rt.finished {
		return
	}
	rt.failErr = err
	for id, st := range rt.calls {
		st.err = err
		delete(rt.calls, id)
		close(st.done)
	}
	rt.regMu.Lock()
	for id, rc := range rt.regCalls {
		rc.err = err
		delete(rt.regCalls, id)
		close(rc.done)
	}
	rt.regMu.Unlock()
}

// shuttingDown reports whether socket errors are expected (orderly exit).
func (rt *Runtime) shuttingDown() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.finished
}

// --- transport.Proc ---

// proc is one hosted node's application execution context.
type proc struct {
	rt *Runtime
	id int
}

func (p *proc) ID() int { return p.id }

func (p *proc) Now() transport.Time { return p.rt.Now() }

// Advance models local computation: with a timescale it really sleeps
// (releasing the state lock so handlers keep running, like the simulated
// process yielding to the event queue); without one it is free.
func (p *proc) Advance(d transport.Time) {
	real := p.rt.scaled(d)
	if real <= 0 {
		return
	}
	p.rt.mu.Unlock()
	time.Sleep(real)
	p.rt.mu.Lock()
}
