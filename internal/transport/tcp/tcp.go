// Package tcp implements the transport seam over real TCP connections:
// each node is a goroutine-or-process endpoint speaking binary frames (a
// fixed 32-byte header plus the message's hand-rolled binary body — every
// message internal/core registers has exactly one encoding, that body; a
// gob escape frame carries only codecs registered without binary hooks)
// over net.Conn. One Runtime instance hosts one or more nodes; hosting all
// nodes in one process gives an in-process loopback mesh
// (every pair of nodes still talks through a real socket), hosting a
// subset gives one endpoint of a genuine multi-process deployment (the
// dsmnode command). Every node pair shares one connection, carrying both
// message classes (transport.ClassOf): the writer sends queued control
// frames before queued bulk frames, and the reader hands bulk calls to
// a goroutine of their own, so a page or checkpoint payload never holds
// a barrier release or an ownership grant behind it.
//
// Where the simulator parks a virtual process and resumes it from the
// event queue, this runtime blocks the calling goroutine on a channel that
// the reply frame completes. Handlers preserve the simulator's "interrupt
// model" invariant — exactly one thing mutates a node's protocol state at
// a time — via one state lock per hosted node, as if each node were its
// own workstation: a node's application body holds its lock except while
// blocked in a call or Advance, and frame dispatch takes
// the destination node's lock around each handler. Nodes hosted by the
// same endpoint run concurrently; a reply completes under a small leaf
// lock that never takes a node lock, and no code path holds two node
// locks.
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

	"adsm/internal/stats"
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
	// OneSided is ignored; it stays only because benchmark/ sets it (ROADMAP 4(a)).
	OneSided bool
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
	// peer as a control frame every LeaseTerm/3 and declares a peer dead
	// (transport.ErrLeaseExpired) when no frame at all arrives from it for
	// a full term. Zero disables heartbeats and lease monitoring (the
	// default — loss is then detected only by connection errors). Every
	// participant must use the same value; the handshake enforces it.
	LeaseTerm time.Duration
	// Faults, when non-nil, perturbs outgoing frames (drop/delay) for
	// fault-injection tests. See FaultInjector.
	Faults FaultInjector
}

// frame ops.
const (
	opHello = 1 + iota // dialer introduces itself on a fresh connection
	opCall             // a request (fresh or forwarded)
	opReply            // the answer travelling back to the call's origin
	opBye              // orderly shutdown: this endpoint's bodies finished
	opPing             // heartbeat refreshing the peer's lease
)

// numClasses is the number of message classes (transport.ClassControl,
// transport.ClassBulk); each end keeps one send queue per class, and the
// per-lane counters of Count have one entry per class.
const numClasses = 2

// body kinds: how the bytes after the fixed header are encoded.
const (
	bodyNone   = iota // no body (bye)
	bodyBinary        // hand-rolled binary codec; header names it by wire id
	bodyGob           // the escape op: gob of a message whose codec has no binary hooks
	bodyErr           // a transport-level failure string (error reply)
	bodyHello         // handshake: tag + codec digest + epoch + lease + error
)

// The unit on the wire is a fixed 32-byte binary header followed by a
// body. Messages with AppendWire/DecodeWire hooks travel as
// bodyBinary: varint metadata followed by the raw payload bytes, handed
// to the socket as iovecs (net.Buffers, one writev per writer wake-up) so
// a page's 4 KB never passes through an intermediate copy. Every message internal/core
// registers travels that way. The bodyGob escape frame — a fresh gob
// encoding of the message value — exists only for codecs registered
// without binary hooks (a test's or a benchmark's own message types).
// Header layout, little-endian:
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
// model); the real framing cost is counted separately (frames, wire bytes,
// encode time; see Runtime.Count).
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
	Idx    int    // multicall slot; hello: always 0 (a pair has one connection)
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
	fb    *frameBuf
	wire  int             // total bytes that will hit the socket (header + body)
	class transport.Class // the send queue it waits in
}

// appendWriter adapts gob's stream interface to an append buffer.
type appendWriter struct{ b *[]byte }

func (w appendWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// encodeFrame renders f into a pooled buffer. On the binary hot path it
// performs zero steady-state allocations: header and metadata go into the
// pooled buffer, payload slices are referenced, not copied.
func encodeFrame(f *frame) (outFrame, error) {
	fb := framePool.Get().(*frameBuf)
	b := fb.b[:headerLen]
	bufs := append(fb.bufs[:0], nil) // slot 0 reserved for header+metadata
	kind := byte(bodyNone)
	var wireID uint16
	class := transport.ClassControl // frames without a message are control traffic
	switch {
	case f.M != nil:
		c, ok := transport.CodecOf(f.M)
		if !ok {
			fb.recycle()
			return outFrame{}, fmt.Errorf("tcp: message %T has no registered codec", f.M)
		}
		class = c.Class
		if id, isBin := transport.WireIDOf(f.M); isBin {
			kind, wireID = bodyBinary, id
			b, bufs = c.AppendWire(f.M, b, bufs)
		} else {
			kind = bodyGob
			v := any(f.M)
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
		b = binary.LittleEndian.AppendUint64(b, f.Digest)
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Epoch))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Lease))
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
	return outFrame{fb: fb, wire: headerLen + bodyLen, class: class}, nil
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
// bodies decode to a message of a registered hookless codec. A node that
// installs a page from a reply adopts the page's capped slice of the blob
// as its frame for as long as it holds the page (internal/core/frame.go):
// reusing body buffers across frames (ROADMAP item 20) must leave a blob
// alone while any page still holds a slice of it.
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
		Idx:    int(int32(binary.LittleEndian.Uint32(hdr[28:]))),
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
		m, ok := v.(transport.Msg)
		if ok {
			_, ok = transport.CodecOf(m)
		}
		if !ok {
			return nil, fmt.Errorf("tcp: gob frame carries %T, which has no registered codec", v)
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

// end is this runtime's end of the one connection between one hosted
// node and one peer node. Protocol code never blocks on the socket: sends
// enqueue onto one of two unbounded FIFO queues, one per message class,
// drained by a dedicated writer goroutine, so a full TCP buffer can never
// wedge a handler that holds its node's state lock. Each wake-up of the
// writer sends everything queued in one vectored write, control frames
// first: a barrier release or an ownership grant queued behind a burst of
// page replies goes out ahead of them.
type end struct {
	rt          *Runtime
	owner, peer int
	conn        net.Conn

	qmu    sync.Mutex
	qcond  *sync.Cond
	q      [numClasses][]outFrame // indexed by transport.Class
	qhwm   [numClasses]int64      // peak queue depth per class over the run
	closed bool

	// Received bulk-class calls, in arrival order; the head is the one
	// being served. A goroutine serves them while any is queued, so a slow
	// bulk handler never stalls the reader and the control calls behind it.
	bmu sync.Mutex
	bq  []*frame

	byeOnce sync.Once
	bye     chan struct{}

	// lastHeard is the time (unix nanos) a frame last arrived on this
	// end, refreshed by the reader goroutine and read by the lease
	// monitor.
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
	start    time.Time
	dialT    time.Duration
	fprnt    string
	lease    time.Duration
	faults   FaultInjector
	epoch    int64         // membership epoch (atomic: wildcard dials adopt it)
	closed   chan struct{} // closed by Close: stops heartbeat/monitor goroutines
	closeOne sync.Once

	// nodes[id] is hosted node id's state lock and handler (nil for nodes
	// hosted elsewhere).
	nodes []*node

	// callMu is the leaf lock of the call table: a reply completes under
	// it alone, and nothing that holds it takes a node lock.
	callMu   sync.Mutex
	calls    map[uint64]*callState
	nextCall uint64
	failErr  error
	finished bool

	// Traffic counters (the protocol model's Msg.Size()+HeaderBytes
	// charge) and wire-efficiency counters (the real framing cost; both
	// reported by Count). Atomics: every node adds to them concurrently.
	// The wire counters cover exactly the data-plane frames (calls,
	// replies, error replies), not the handshake/goodbye control frames.
	msgs       atomic.Int64
	bytes      atomic.Int64
	wireFrames atomic.Int64
	wireBytes  atomic.Int64
	encodeNS   atomic.Int64
	laneBytes  [numClasses]atomic.Int64 // wire bytes per class, same coverage as wireBytes

	isLocal   []bool
	ends      [][]*end // [local node][peer node]
	listeners []net.Listener
	bodies    map[int]func(transport.Proc)
	runGate   chan struct{}
	bodyWG    sync.WaitGroup

	errMu    sync.Mutex
	bodyErrs []error
}

// node is one hosted node's slot. mu is the node's state lock: its body
// holds it except while blocked in Multicall or Advance, and
// every handler and deferred action addressed to the node runs under it.
type node struct {
	mu      sync.Mutex
	handler transport.Handler
}

// New builds the endpoint: binds the local listeners, establishes the full
// mesh (one connection per pair of nodes with a hosted end; the
// higher-numbered node dials the lower), and returns once every expected
// peer is connected.
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
	rt := &Runtime{
		procs:   o.Procs,
		local:   local,
		start:   time.Now(),
		dialT:   dialT,
		fprnt:   o.Fingerprint,
		lease:   o.LeaseTerm,
		faults:  o.Faults,
		epoch:   o.Epoch,
		closed:  make(chan struct{}),
		nodes:   make([]*node, o.Procs),
		calls:   make(map[uint64]*callState),
		isLocal: isLocal,
		ends:    make([][]*end, o.Procs),
		bodies:  make(map[int]func(transport.Proc)),
		runGate: make(chan struct{}),
	}
	for _, id := range local {
		rt.nodes[id] = &node{}
		rt.ends[id] = make([]*end, o.Procs)
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

// connectMesh establishes every connection with a hosted end: for each
// node pair the higher-numbered node dials the lower, and each hosted node
// accepts one connection from every higher-numbered peer.
func (rt *Runtime) connectMesh() error {
	type res struct {
		e   *end
		err error
	}
	expect := 0
	ch := make(chan res, rt.procs*rt.procs)

	// Accept side: every hosted node accepts from higher-numbered peers.
	// Each accepted connection handshakes on its own goroutine under a
	// read deadline, so a connecter that never sends hello (or sends
	// garbage, or names a lane other than 0) is dropped without stalling
	// the accept loop or failing the mesh — it simply never counts toward
	// the expected connections. So is a hello from a node that is not a
	// higher-numbered peer: its end would index past the mesh, or take
	// the slot of a connection this node dials itself.
	for li, id := range rt.local {
		expect += rt.procs - 1 - id
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
					ack := &frame{Op: opHello, From: id, To: hello.From,
						Tag: rt.fprnt, Digest: transport.WireDigest(), Lease: int64(rt.lease)}
					stray := true // refused connecter that is no participant
					switch {
					case hello.From <= id || hello.From >= rt.procs:
						ack.Err = fmt.Sprintf("tcp: node %d: hello from node %d, but only nodes %d..%d dial node %d",
							id, hello.From, id+1, rt.procs-1, id)
					case hello.Idx != 0:
						ack.Err = fmt.Sprintf("tcp: node %d: peer node %d opened lane %d, but a pair has one connection, lane 0",
							id, hello.From, hello.Idx)
					default:
						stray, ack.Err = false, rt.agree(id, hello.From, hello)
					}
					ack.Epoch = atomic.LoadInt64(&rt.epoch)
					if of, err := encodeFrame(ack); err == nil {
						writeOut(conn, of)
					}
					if ack.Err != "" {
						conn.Close()
						if !stray {
							ch <- res{err: fmt.Errorf("%s", ack.Err)}
						}
						return
					}
					conn.SetReadDeadline(time.Time{})
					ch <- res{e: rt.newEnd(id, hello.From, conn)}
				}(conn)
			}
		}()
	}

	// Dial side: every hosted node dials every lower-numbered peer once.
	// The whole dial+handshake sequence retries with exponential
	// backoff until the dial deadline: peers come up in any order, and
	// during recovery a dial can land on a peer's dying previous
	// incarnation, which resets the connection mid-handshake and clears
	// once the peer re-meshes. Handshake rejections (wrong configuration,
	// stale epoch) are immediately fatal — recovery drivers that expect
	// teardown races retry mesh formation as a whole.
	for _, id := range rt.local {
		for peer := 0; peer < id; peer++ {
			expect++
			go func() {
				deadline := time.Now().Add(rt.dialT)
				backoff := 10 * time.Millisecond
				for {
					e, fatal, err := rt.dialPeer(id, peer)
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

	timeout := time.After(rt.dialT + time.Second)
	for k := 0; k < expect; k++ {
		select {
		case r := <-ch:
			if r.err != nil {
				return r.err
			}
			if rt.ends[r.e.owner][r.e.peer] != nil {
				return fmt.Errorf("tcp: node %d: duplicate connection from node %d", r.e.owner, r.e.peer)
			}
			rt.ends[r.e.owner][r.e.peer] = r.e
		case <-timeout:
			return fmt.Errorf("tcp: mesh incomplete after %v (are all peers running?)", rt.dialT)
		}
	}
	// Start the frame pumps.
	rt.eachEnd(func(e *end) {
		go e.writeLoop()
		go e.readLoop()
	})
	return nil
}

// dialPeer performs one dial+handshake attempt for a pair's connection.
// fatal distinguishes handshake rejections and mismatches (wrong
// fingerprint, codec set, lease term, stale epoch) from
// transient connection-level conditions the caller should retry: the peer
// not listening yet, or its dying previous incarnation resetting the
// connection mid-handshake.
func (rt *Runtime) dialPeer(id, peer int) (e *end, fatal bool, err error) {
	conn, err := net.DialTimeout("tcp", rt.addrs[peer], time.Second)
	if err != nil {
		return nil, false, fmt.Errorf("tcp: node %d dial node %d (%s): %w", id, peer, rt.addrs[peer], err)
	}
	of, err := encodeFrame(&frame{Op: opHello, From: id, To: peer,
		Tag: rt.fprnt, Digest: transport.WireDigest(),
		Epoch: atomic.LoadInt64(&rt.epoch), Lease: int64(rt.lease)})
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
	if msg := rt.agree(id, peer, ack); msg != "" {
		conn.Close()
		return nil, true, fmt.Errorf("%s", msg)
	}
	conn.SetReadDeadline(time.Time{})
	return rt.newEnd(id, peer, conn), false, nil
}

// agree checks node peer's hello (or hello ack) h against this endpoint,
// node id's side of the handshake, and returns the refusal, or "" when
// they agree: same configuration fingerprint, codec set, lease term and
// membership epoch. A recovering endpoint (epoch -1) adopts the epoch of
// the first peer it agrees with.
func (rt *Runtime) agree(id, peer int, h *frame) string {
	ourEpoch := atomic.LoadInt64(&rt.epoch)
	switch {
	case h.Tag != "" && rt.fprnt != "" && h.Tag != rt.fprnt:
		return fmt.Sprintf("tcp: node %d: peer node %d runs a different configuration: ours %q, theirs %q",
			id, peer, rt.fprnt, h.Tag)
	case h.Digest != transport.WireDigest():
		return fmt.Sprintf("tcp: node %d: peer node %d disagrees on the binary wire codec set (digest %x vs %x) — peers must be built from the same message definitions",
			id, peer, transport.WireDigest(), h.Digest)
	case h.Lease != int64(rt.lease):
		return fmt.Sprintf("tcp: node %d: peer node %d uses lease term %v, ours %v — every participant must use the same -lease",
			id, peer, time.Duration(h.Lease), rt.lease)
	case h.Epoch != -1 && ourEpoch != -1 && h.Epoch != ourEpoch:
		return fmt.Sprintf("tcp: node %d: peer node %d is at membership epoch %d, ours %d — a stale process from a previous incarnation must not rejoin",
			id, peer, h.Epoch, ourEpoch)
	}
	if ourEpoch == -1 && h.Epoch != -1 {
		atomic.CompareAndSwapInt64(&rt.epoch, -1, h.Epoch)
	}
	return ""
}

func (rt *Runtime) newEnd(owner, peer int, conn net.Conn) *end {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	e := &end{rt: rt, owner: owner, peer: peer, conn: conn, bye: make(chan struct{})}
	e.qcond = sync.NewCond(&e.qmu)
	atomic.StoreInt64(&e.lastHeard, time.Now().UnixNano())
	return e
}

// --- the send path (never blocks protocol code) ---

func (e *end) enqueue(of outFrame) {
	e.qmu.Lock()
	if !e.closed {
		q := append(e.q[of.class], of)
		e.q[of.class] = q
		e.qhwm[of.class] = max(e.qhwm[of.class], int64(len(q)))
		e.qcond.Signal()
	} else {
		of.fb.recycle()
	}
	e.qmu.Unlock()
}

// depth reports the current depth of each class's queue and its
// high-water mark.
func (e *end) depth() (cur, hwm [numClasses]int64) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for c, q := range e.q {
		cur[c] = int64(len(q))
	}
	return cur, e.qhwm
}

// flushed reports whether both queues have fully drained.
func (e *end) flushed() bool {
	cur, _ := e.depth()
	return cur == [numClasses]int64{}
}

func (e *end) closeQueue() {
	e.qmu.Lock()
	e.closed = true
	e.qcond.Signal()
	e.qmu.Unlock()
}

// take moves every queued frame into batch, control frames first, each
// class in FIFO order, and blocks until there is one. It returns false
// once the queues are closed and empty.
func (e *end) take(batch []outFrame) ([]outFrame, bool) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for len(e.q[transport.ClassControl])+len(e.q[transport.ClassBulk]) == 0 {
		if e.closed {
			return batch, false
		}
		e.qcond.Wait()
	}
	for c, q := range e.q {
		batch = append(batch, q...)
		clear(q) // the array is reused: drop its buffer references
		e.q[c] = q[:0]
	}
	return batch, true
}

// writeLoop sends, on each wake-up, everything queued as one vectored
// write: the header+metadata and payload slices of every frame go to the
// socket together, so a burst of replies costs one writev, not one per
// frame. The pooled buffers are recycled only after the write completes
// (payloads alias them and live protocol data until then).
func (e *end) writeLoop() {
	var batch []outFrame
	var iov net.Buffers
	for {
		var ok bool
		if batch, ok = e.take(batch[:0]); !ok {
			return
		}
		for _, of := range batch {
			// Fault injection runs per frame, before batching: the injector
			// sees exactly the frames about to hit the socket, with their
			// class as the lane, and never runs under a node lock.
			if inj := e.rt.faults; inj != nil {
				if d := inj.DelayFrame(e.owner, e.peer, int(of.class)); d > 0 {
					time.Sleep(d)
				}
				if inj.DropFrame(e.owner, e.peer, int(of.class)) {
					continue // recycled with the batch
				}
			}
			iov = append(iov, of.fb.bufs...)
		}
		wb := iov // WriteTo consumes its copy of the slice header
		_, err := wb.WriteTo(e.conn)
		clear(iov) // the pool must never pin pages through the iovec list
		iov = iov[:0]
		for _, of := range batch {
			of.fb.recycle()
		}
		clear(batch)
		if err != nil {
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
		case opCall:
			if transport.ClassOf(f.M) == transport.ClassBulk {
				e.queueBulkCall(f)
				continue
			}
		}
		// Control calls and every reply run here: a reply takes only the
		// call table's leaf lock.
		e.rt.dispatch(f)
	}
}

// queueBulkCall queues a received bulk-class call, starting the server
// when the queue was empty (a non-empty queue has one running).
func (e *end) queueBulkCall(f *frame) {
	e.bmu.Lock()
	e.bq = append(e.bq, f)
	idle := len(e.bq) == 1
	e.bmu.Unlock()
	if idle {
		go e.serveBulk()
	}
}

// serveBulk dispatches the queued bulk calls in arrival order, dropping
// each from the queue once served, and exits when the queue is empty.
func (e *end) serveBulk() {
	e.bmu.Lock()
	for len(e.bq) > 0 {
		f := e.bq[0]
		e.bmu.Unlock()
		e.rt.dispatch(f)
		e.bmu.Lock()
		e.bq[0] = nil
		e.bq = e.bq[1:]
	}
	e.bmu.Unlock()
}

// dispatch routes one arrived call or reply frame. The message was
// already decoded in readFrame (in the reader goroutine, off every lock).
// A call runs the destination node's handler under that node's state
// lock; a reply completes its call under the call table's leaf lock only,
// so it never waits for the origin node's body or handlers.
func (rt *Runtime) dispatch(f *frame) {
	switch f.Op {
	case opCall:
		if f.To < 0 || f.To >= rt.procs || !rt.isLocal[f.To] {
			rt.fail(fmt.Errorf("tcp: call from node %d addressed to node %d, which this endpoint does not host", f.From, f.To))
			return
		}
		rt.serve(&call{rt: rt, origin: f.Origin, id: f.CallID, idx: f.Idx, cur: f.To}, f.From, f.M)
	case opReply:
		var err error
		if f.Err != "" {
			err = fmt.Errorf("%s", f.Err)
		}
		rt.complete(f.CallID, f.Idx, f.M, err)
	default:
		rt.fail(fmt.Errorf("tcp: node %d received unknown frame op %d", f.To, f.Op))
	}
}

// serve runs the handler of the node holding c (c.cur) for one arrived
// call, under that node's state lock.
func (rt *Runtime) serve(c *call, from int, m transport.Msg) {
	nd := rt.nodes[c.cur]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			// A handler panicking with an error value is a protocol raising
			// a typed condition (e.g. core.ErrCkptUnrecoverable): wrap it so
			// errors.Is matches through Run's error. Anything else is a bug
			// and keeps its stack trace.
			if err, ok := r.(error); ok {
				rt.fail(fmt.Errorf("tcp: handler on node %d: %w", c.cur, err))
			} else {
				rt.fail(fmt.Errorf("tcp: handler on node %d panicked: %v\n%s", c.cur, r, debug.Stack()))
			}
		}
	}()
	rt.deliverLocal(c, from, m)
}

// deliverLocal runs the handler of node c.cur, whose state lock the caller
// holds: for a dispatched frame, or for a call whose sender and receiver
// are the same node, which never touches the wire (uncharged, like the
// simulator's local procedure call).
func (rt *Runtime) deliverLocal(c *call, from int, m transport.Msg) {
	h := rt.nodes[c.cur].handler
	if h == nil {
		rt.replyErr(c, fmt.Sprintf("tcp: call from node %d to node %d: no handler registered", from, c.cur))
		return
	}
	h(c, from, m)
}

// replyErr sends a transport-level failure back to a call's origin.
func (rt *Runtime) replyErr(c *call, msg string) {
	if rt.isLocal[c.origin] {
		rt.complete(c.id, c.idx, nil, fmt.Errorf("%s", msg))
		return
	}
	rt.send(&frame{Op: opReply, From: c.cur, To: c.origin, CallID: c.id, Idx: c.idx, Err: msg}, nil)
}

// newCall registers one blocking call in the call table under a fresh id.
// It fails once the runtime is poisoned. Registering under the lock fail takes means every registered
// call is either completed or failed, never stranded.
func (rt *Runtime) newCall(st *callState) (uint64, error) {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	if rt.failErr != nil {
		return 0, rt.failErr
	}
	rt.nextCall++
	id := rt.nextCall
	rt.calls[id] = st
	return id, nil
}

// complete records one slot of a pending call.
func (rt *Runtime) complete(id uint64, idx int, m transport.Msg, err error) {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
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

// send encodes and enqueues one frame between two distinct nodes,
// charging the traffic counters when it carries a message and the
// wire-efficiency counters always. The caller holds the sending node's
// state lock.
func (rt *Runtime) send(f *frame, m transport.Msg) {
	var ee *end
	if e := rt.ends[f.From]; e != nil {
		ee = e[f.To]
	}
	if ee == nil {
		panic(fmt.Sprintf("tcp: no connection from node %d to node %d", f.From, f.To))
	}
	if m != nil {
		f.M = m
		rt.msgs.Add(1)
		rt.bytes.Add(int64(m.Size() + transport.HeaderBytes))
	}
	start := time.Now()
	of, err := encodeFrame(f)
	if err != nil {
		panic(fmt.Sprintf("tcp: encoding frame from node %d to node %d: %v", f.From, f.To, err))
	}
	rt.encodeNS.Add(time.Since(start).Nanoseconds())
	rt.wireFrames.Add(1)
	rt.wireBytes.Add(int64(of.wire))
	rt.laneBytes[of.class].Add(int64(of.wire))
	ee.enqueue(of)
}

// --- transport.Call ---

// call is the handler-side view of one in-flight request. It runs in the
// context of node cur, whose state lock is held.
type call struct {
	rt     *Runtime
	origin int
	id     uint64
	idx    int
	cur    int // node currently holding the call
}

func (c *call) Origin() int { return c.origin }

func (c *call) Reply(m transport.Msg) {
	if c.cur == c.origin {
		c.rt.complete(c.id, c.idx, m, nil)
		return
	}
	c.rt.send(&frame{Op: opReply, From: c.cur, To: c.origin, CallID: c.id, Idx: c.idx}, m)
}

// ReplyAfter replies at once: the modelled processing cost d is time on
// the simulator's clock only.
func (c *call) ReplyAfter(d transport.Time, m transport.Msg) { c.Reply(m) }

func (c *call) Forward(to int, m transport.Msg) {
	from := c.cur
	c.cur = to
	if to == from {
		c.rt.deliverLocal(c, from, m)
		return
	}
	c.rt.send(&frame{Op: opCall, From: from, To: to, Origin: c.origin, CallID: c.id, Idx: c.idx}, m)
}

// ForwardAfter forwards at once, as ReplyAfter replies.
func (c *call) ForwardAfter(d transport.Time, to int, m transport.Msg) { c.Forward(to, m) }

// --- transport.Transport ---

// Register installs the call handler for node id.
func (rt *Runtime) Register(id int, h transport.Handler) {
	if !rt.isLocal[id] {
		panic(fmt.Sprintf("tcp: node %d is not hosted by this endpoint", id))
	}
	nd := rt.nodes[id]
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.handler = h
}

// Call sends m to node `to` on behalf of p and blocks until the reply
// arrives.
func (rt *Runtime) Call(p transport.Proc, to int, m transport.Msg) transport.Msg {
	return rt.Multicall(p, []transport.Target{{To: to, M: m}})[0]
}

// Multicall issues all requests simultaneously and blocks until every
// reply has arrived. Results are positional. The calling body holds its
// node's state lock; it is released while blocked.
func (rt *Runtime) Multicall(p transport.Proc, reqs []transport.Target) []transport.Msg {
	if len(reqs) == 0 {
		return nil
	}
	from := p.ID()
	st := &callState{results: make([]transport.Msg, len(reqs)), pending: len(reqs), done: make(chan struct{})}
	id, err := rt.newCall(st)
	if err != nil {
		panic(err)
	}
	for i, r := range reqs {
		if r.To < 0 || r.To >= rt.procs {
			rt.complete(id, i, nil, fmt.Errorf("tcp: call to node %d: no such node", r.To))
			continue
		}
		if r.To == from {
			rt.deliverLocal(&call{rt: rt, origin: from, id: id, idx: i, cur: from}, from, r.M)
			continue
		}
		rt.send(&frame{Op: opCall, From: from, To: r.To, Origin: from, CallID: id, Idx: i}, r.M)
	}
	nd := rt.nodes[from]
	nd.mu.Unlock()
	<-st.done
	nd.mu.Lock()
	if st.err != nil {
		panic(st.err)
	}
	return st.results
}

// After runs fn in node's handler context, under its state lock, as soon
// as the lock is free: the modelled delay d is time on the simulator's
// clock only. It keeps firing after this endpoint's bodies finish — a
// deferred grant may be what a still-running peer is blocked on — and
// stops only when the runtime is poisoned.
func (rt *Runtime) After(node int, d transport.Time, fn func()) {
	time.AfterFunc(0, func() {
		nd := rt.nodes[node]
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if rt.poisoned() {
			return
		}
		fn()
	})
}

// Count adds the hosted nodes' traffic and wire counters into s and sets
// the per-lane slices, one entry per message class (control, then bulk):
// bytes sent, the frames queued now summed over every peer end, and the
// deepest any single per-end send queue of the class ever got.
func (rt *Runtime) Count(s *stats.Counters) {
	s.Messages += rt.msgs.Load()
	s.DataBytes += rt.bytes.Load()
	s.WireFrames += rt.wireFrames.Load()
	s.WireBytes += rt.wireBytes.Load()
	s.WireEncodeNS += rt.encodeNS.Load()
	s.LaneBytes = make([]int64, numClasses)
	s.LaneQueueDepth = make([]int64, numClasses)
	s.LaneQueueHWM = make([]int64, numClasses)
	for c := range rt.laneBytes {
		s.LaneBytes[c] = rt.laneBytes[c].Load()
	}
	rt.eachEnd(func(e *end) {
		cur, hwm := e.depth()
		for c := range cur {
			s.LaneQueueDepth[c] += cur[c]
			s.LaneQueueHWM[c] = max(s.LaneQueueHWM[c], hwm[c])
		}
	})
}

func (rt *Runtime) eachEnd(fn func(*end)) {
	for _, id := range rt.local {
		for _, e := range rt.ends[id] {
			if e != nil {
				fn(e)
			}
		}
	}
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

// Run executes the spawned bodies (each under its node's state lock,
// released while blocked) and the frame pumps until every local body has
// finished, then performs the orderly goodbye with every peer.
func (rt *Runtime) Run() error {
	rt.start = time.Now() // Elapsed excludes the mesh dial window and app setup
	close(rt.runGate)
	if rt.lease > 0 {
		// Leases start counting now, not at mesh formation: app setup
		// between New and Run must not eat into the first term.
		stamp := time.Now().UnixNano()
		rt.eachEnd(func(e *end) { atomic.StoreInt64(&e.lastHeard, stamp) })
		go rt.leases()
	}
	for id, body := range rt.bodies {
		id, body := id, body
		nd := rt.nodes[id]
		p := &proc{rt: rt, id: id}
		rt.bodyWG.Add(1)
		go func() {
			defer rt.bodyWG.Done()
			defer func() {
				if r := recover(); r != nil {
					// Bodies panic with their node's lock held (transport
					// failures are raised after the call relocks).
					nd.mu.Unlock()
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
			nd.mu.Lock()
			body(p)
			nd.mu.Unlock()
		}()
	}
	rt.bodyWG.Wait()

	rt.callMu.Lock()
	rt.finished = true
	failed := rt.failErr
	rt.callMu.Unlock()

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
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	return rt.failErr
}

// leases keeps every peer's lease on this endpoint fresh and watches
// theirs. Every LeaseTerm/3 it sends an opPing, a control frame, on each
// end, encoded and enqueued directly: no node lock, no traffic counters
// (heartbeats are membership overhead, not protocol traffic). Every
// LeaseTerm/4 it declares dead a peer from which nothing, heartbeat or
// data, has arrived for a full term: that catches wedged-but-connected
// peers (SIGSTOP, livelock) that a socket error never would.
func (rt *Runtime) leases() {
	ping, check := time.NewTicker(rt.lease/3), time.NewTicker(rt.lease/4)
	defer ping.Stop()
	defer check.Stop()
	for {
		select {
		case <-rt.closed:
			return
		case <-ping.C:
			rt.eachEnd(func(e *end) {
				if e.sawBye() {
					return
				}
				if of, err := encodeFrame(&frame{Op: opPing, From: e.owner, To: e.peer}); err == nil {
					e.enqueue(of)
				}
			})
		case <-check.C:
			now := time.Now().UnixNano()
			rt.eachEnd(func(e *end) {
				if !e.sawBye() && now-atomic.LoadInt64(&e.lastHeard) > int64(rt.lease) {
					// Poison pending calls (a no-op once the run has failed or finished).
					rt.fail(fmt.Errorf("tcp: node %d: %w", e.owner, transport.ErrLeaseExpired{Node: e.peer}))
				}
			})
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
		if of, err := encodeFrame(&frame{Op: opBye, From: e.owner, To: e.peer}); err == nil {
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
	rt.eachEnd(func(e *end) {
		e.closeQueue()
		e.conn.Close()
	})
}

// fail aborts every pending call and poisons the runtime. It takes only
// the call table's leaf lock, so it never waits for a running body.
func (rt *Runtime) fail(err error) {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
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
}

// shuttingDown reports whether socket errors are expected (orderly exit).
func (rt *Runtime) shuttingDown() bool {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	return rt.finished
}

// poisoned reports whether a failure has poisoned the runtime.
func (rt *Runtime) poisoned() bool {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	return rt.failErr != nil
}

// --- transport.Proc ---

// proc is one hosted node's application execution context.
type proc struct {
	rt *Runtime
	id int
}

func (p *proc) ID() int { return p.id }

func (p *proc) Now() transport.Time { return p.rt.Now() }

// Advance is free: modelled computation is time on the simulator's clock
// only.
func (p *proc) Advance(d transport.Time) {}
