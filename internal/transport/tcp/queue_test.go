package tcp

import (
	"bytes"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adsm/internal/transport"
)

// gateConn is a net.Conn stand-in for the writer: Write records the bytes
// but first blocks until the test opens the gate, and entered closes at
// the first Write, so a test can look at the end while a write is in
// flight.
type gateConn struct {
	net.Conn
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
	mu      sync.Mutex
	out     bytes.Buffer
}

func newGateConn() *gateConn {
	return &gateConn{entered: make(chan struct{}), gate: make(chan struct{})}
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.entered) })
	<-c.gate
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

// classLog is a FaultInjector that records the lane argument of every
// frame the writer is about to send, and perturbs nothing.
type classLog struct {
	mu      sync.Mutex
	classes []int
}

func (l *classLog) DropFrame(from, to, lane int) bool { return false }
func (l *classLog) DelayFrame(from, to, lane int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.classes = append(l.classes, lane)
	return 0
}

// TestWriterQueueClasses pins the writer's two-class queue on one end:
// every frame queued before a wake-up leaves in that wake-up's write,
// control frames before bulk frames and each class in FIFO order, the
// fault injector sees each frame's class as its lane, and no encode
// buffer is recycled until the write that carries it has returned.
// A frame queued while a write is in flight goes in the next one.
func TestWriterQueueClasses(t *testing.T) {
	conn := newGateConn()
	log := &classLog{}
	e := (&Runtime{faults: log}).newEnd(0, 1, conn)
	var fbs []*frameBuf
	queue := func(id uint64, m transport.Msg) {
		of, err := encodeFrame(&frame{Op: opCall, From: 0, To: 1, CallID: id, M: m})
		if err != nil {
			t.Fatal(err)
		}
		fbs = append(fbs, of.fb)
		e.enqueue(of)
	}
	// Queued in id order: bulk 1, control 2, bulk 3, bulk 4, control 5.
	for id, bulk := range []bool{true, false, true, true, false} {
		if bulk {
			queue(uint64(id+1), tbulk{N: id + 1, Data: make([]byte, 1024)})
		} else {
			queue(uint64(id+1), tmsg{N: id + 1})
		}
	}
	done := make(chan struct{})
	go func() { e.writeLoop(); close(done) }()

	<-conn.entered
	if cur, _ := e.depth(); cur != [numClasses]int64{} {
		t.Errorf("queues hold %v frames while the first write is in flight: one wake-up must take every queued frame", cur)
	}
	for i, fb := range fbs {
		if len(fb.bufs) == 0 {
			t.Errorf("frame %d: buffer recycled before its write returned", i+1)
		}
	}
	queue(6, tmsg{N: 6}) // queued during the write: the next wake-up's
	close(conn.gate)
	e.closeQueue() // the writer still sends what is queued, then exits
	<-done
	for i, fb := range fbs {
		if len(fb.bufs) != 0 {
			t.Errorf("frame %d: buffer not recycled after its write", i+1)
		}
	}

	var order []uint64
	for conn.out.Len() > 0 {
		f, err := readFrame(&conn.out)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, f.CallID)
	}
	if want := []uint64{2, 5, 1, 3, 4, 6}; !slices.Equal(order, want) {
		t.Errorf("frames written in order %v, want %v (control first, FIFO within each class)", order, want)
	}
	if want := []int{0, 0, 1, 1, 1, 0}; !slices.Equal(log.classes, want) {
		t.Errorf("fault injector saw lanes %v, want each frame's class %v", log.classes, want)
	}
	if _, hwm := e.depth(); hwm != [numClasses]int64{2, 3} {
		t.Errorf("queue high-water marks %v, want [2 3]", hwm)
	}
}

// TestMeshOneConnectionPerPair: a 4-node in-process mesh holds one
// connection per node pair, 6 in all, each seen from both of its ends,
// 12 in all.
func TestMeshOneConnectionPerPair(t *testing.T) {
	rt := mesh(t, 4)
	defer rt.Close()
	ends := 0
	conns := map[[2]string]bool{}
	rt.eachEnd(func(e *end) {
		ends++
		a, b := e.conn.LocalAddr().String(), e.conn.RemoteAddr().String()
		conns[[2]string{min(a, b), max(a, b)}] = true
	})
	if ends != 12 || len(conns) != 6 {
		t.Errorf("4-node mesh: %d ends over %d connections, want 12 over 6", ends, len(conns))
	}
}

// TestBulkCallsLeaveTheReader: a received bulk-class call goes to the
// end's bulk server, which runs them one at a time in arrival order, so
// the reader stays free for the control call that arrives behind them on
// the same connection. Node 0 sends a burst of slow bulk calls to node 1;
// once node 1 is serving them, node 2 calls node 0, whose handler forwards
// the call to node 1 behind the burst. It must be handled before most of
// the burst, which a reader that served bulk calls itself would not do.
func TestBulkCallsLeaveTheReader(t *testing.T) {
	const nbulk = 20
	rt := mesh(t, 3)
	var mu sync.Mutex
	var served []int
	var atPing atomic.Int64
	rt.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Forward(1, m) })
	rt.Register(1, func(c transport.Call, from int, m transport.Msg) {
		if b, ok := m.(tbulk); ok {
			time.Sleep(2 * time.Millisecond) // holds node 1's state lock, like a large handler
			mu.Lock()
			served = append(served, b.N)
			mu.Unlock()
		} else {
			mu.Lock()
			atPing.Store(int64(len(served)))
			mu.Unlock()
		}
		c.Reply(m)
	})
	rt.Register(2, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	rt.Spawn(0, "n0", func(p transport.Proc) {
		targets := make([]transport.Target, nbulk)
		for i := range targets {
			targets[i] = transport.Target{To: 1, M: tbulk{N: i, Data: make([]byte, 8192)}}
		}
		rt.Multicall(p, targets)
	})
	rt.Spawn(1, "n1", func(p transport.Proc) {})
	rt.Spawn(2, "n2", func(p transport.Proc) {
		for {
			mu.Lock()
			started := len(served) > 0
			mu.Unlock()
			if started {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		rt.Call(p, 0, tmsg{N: -1, S: "ping"})
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range served {
		if got != i {
			t.Fatalf("bulk calls served in order %v, want 0..%d", served, nbulk-1)
		}
	}
	if len(served) != nbulk {
		t.Fatalf("%d of %d bulk calls served", len(served), nbulk)
	}
	if n := atPing.Load(); n > nbulk/2 {
		t.Errorf("control call handled after %d/%d bulk calls that arrived before it, expected the reader to reach it early", n, nbulk)
	}
	t.Logf("control call handled after %d/%d bulk calls", atPing.Load(), nbulk)
}
