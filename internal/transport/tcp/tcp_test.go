package tcp

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adsm/internal/stats"
	"adsm/internal/transport"
)

// counts returns the traffic and wire counters rt has counted so far.
func counts(rt *Runtime) stats.Counters {
	var s stats.Counters
	rt.Count(&s)
	return s
}

// tmsg is a registered test message.
type tmsg struct {
	N int
	S string
}

func (m tmsg) Size() int { return 8 + len(m.S) }

// tbulk is a bulk-classed test message: it rides the bulk lane on a
// multiplexed mesh, exactly like a page or diff payload.
type tbulk struct {
	N    int
	Data []byte
}

func (m tbulk) Size() int { return 8 + len(m.Data) }

func init() {
	transport.MustRegisterCodec(transport.Codec{Name: "tcptest.tmsg", Msg: tmsg{}})
	transport.MustRegisterCodec(transport.Codec{Name: "tcptest.tbulk", Msg: tbulk{},
		Class: transport.ClassBulk})
}

// mesh builds an in-process runtime hosting all n nodes.
func mesh(t *testing.T, n int) *Runtime {
	t.Helper()
	rt, err := New(Options{Procs: n})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestCallReplyForward exercises the basic call surface: an echo handler,
// a positional multicall, and a forwarded call whose reply goes straight
// to the origin.
func TestCallReplyForward(t *testing.T) {
	rt := mesh(t, 3)
	for id := 0; id < 3; id++ {
		id := id
		rt.Register(id, func(c transport.Call, from int, m transport.Msg) {
			r := m.(tmsg)
			if r.S == "fwd" && id == 1 {
				c.Forward(2, tmsg{N: r.N, S: "fwded"})
				return
			}
			c.Reply(tmsg{N: r.N * 10, S: r.S + "!"})
		})
	}
	var got atomic.Int64
	rt.Spawn(0, "n0", func(p transport.Proc) {
		r := rt.Call(p, 1, tmsg{N: 7, S: "hi"}).(tmsg)
		if r.N != 70 || r.S != "hi!" {
			t.Errorf("call: got %+v", r)
		}
		rs := rt.Multicall(p, []transport.Target{
			{To: 1, M: tmsg{N: 1, S: "a"}},
			{To: 2, M: tmsg{N: 2, S: "b"}},
		})
		if rs[0].(tmsg).N != 10 || rs[1].(tmsg).N != 20 {
			t.Errorf("multicall: got %+v", rs)
		}
		f := rt.Call(p, 1, tmsg{N: 5, S: "fwd"}).(tmsg)
		if f.N != 50 || f.S != "fwded!" {
			t.Errorf("forward: got %+v", f)
		}
		got.Store(int64(f.N))
	})
	rt.Spawn(1, "n1", func(p transport.Proc) {})
	rt.Spawn(2, "n2", func(p transport.Proc) {})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 50 {
		t.Fatalf("body did not complete")
	}
	if counts(rt).Messages == 0 || counts(rt).DataBytes == 0 {
		t.Fatalf("traffic counters empty: %d msgs, %d bytes", counts(rt).Messages, counts(rt).DataBytes)
	}
}

// TestTCPNodesRunConcurrently pins one state lock per hosted node: the
// nodes of an in-process mesh run like separate workstations, so a body
// that computes without any DSM call stalls neither another node's body
// nor another node's handlers. Every wait is bounded, so a runtime that
// runs its nodes one at a time fails here instead of hanging.
func TestTCPNodesRunConcurrently(t *testing.T) {
	// waitFor spins until cond holds, reporting false once the bound
	// passes.
	waitFor := func(cond func() bool) bool {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
		return true
	}
	run := func(t *testing.T, n int, bodies map[int]func(rt *Runtime, p transport.Proc)) {
		t.Helper()
		rt := mesh(t, n)
		for id := 0; id < n; id++ {
			rt.Register(id, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
			body := bodies[id]
			rt.Spawn(id, "n", func(p transport.Proc) {
				if body != nil {
					body(rt, p)
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("bodies meet", func(t *testing.T) {
		// Each body raises its flag and waits for the other's, with no
		// DSM call in between.
		var up [2]atomic.Bool
		var met [2]bool
		meet := func(me int) func(*Runtime, transport.Proc) {
			return func(*Runtime, transport.Proc) {
				up[me].Store(true)
				met[me] = waitFor(up[1-me].Load)
			}
		}
		run(t, 2, map[int]func(*Runtime, transport.Proc){0: meet(0), 1: meet(1)})
		if !met[0] || !met[1] {
			t.Errorf("bodies did not run at the same time: node 0 saw node 1 = %v, node 1 saw node 0 = %v", met[0], met[1])
		}
	})

	t.Run("handler beside a busy body", func(t *testing.T) {
		// Node 1 spins until node 0's call to node 2 has returned: node
		// 2's handler and node 0's return must not wait for node 1.
		var spinning, returned atomic.Bool
		var sawSpin, sawReturn bool
		run(t, 3, map[int]func(*Runtime, transport.Proc){
			0: func(rt *Runtime, p transport.Proc) {
				sawSpin = waitFor(spinning.Load)
				rt.Call(p, 2, tmsg{N: 1})
				returned.Store(true)
			},
			1: func(*Runtime, transport.Proc) {
				spinning.Store(true)
				sawReturn = waitFor(returned.Load)
			},
		})
		if !sawSpin || !sawReturn {
			t.Errorf("a busy body stalled another node: node 0 saw node 1 spin = %v, node 1 saw the call return = %v", sawSpin, sawReturn)
		}
	})
}

// TestCallUnregisteredNodeFailsLoudly: a call to a node with no handler
// must surface as a Run error naming the failure, not a deadlock.
func TestCallUnregisteredNodeFailsLoudly(t *testing.T) {
	rt := mesh(t, 2)
	rt.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	// Node 1 deliberately registers no handler.
	rt.Spawn(0, "n0", func(p transport.Proc) {
		rt.Call(p, 1, tmsg{N: 1})
	})
	rt.Spawn(1, "n1", func(p transport.Proc) {})
	err := rt.Run()
	if err == nil {
		t.Fatal("expected an error for a call to an unregistered node")
	}
	if !strings.Contains(err.Error(), "no handler registered") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPeerDisconnectMidMulticall: a peer process that dies while a
// multicall awaits its reply must fail the caller with an error instead of
// deadlocking it.
func TestPeerDisconnectMidMulticall(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	// New blocks until the whole mesh is up, so both endpoints must come
	// up concurrently (exactly like separate OS processes would).
	callerReady := make(chan *Runtime, 1)
	go func() {
		caller, err := New(Options{Procs: 3, Local: []int{0}, Addrs: addrs, DialTimeout: 10 * time.Second})
		if err != nil {
			t.Error(err)
			caller = nil
		}
		callerReady <- caller
	}()
	peers, err := New(Options{Procs: 3, Local: []int{1, 2}, Addrs: addrs, DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	caller := <-callerReady
	if caller == nil {
		t.Fatal("caller endpoint failed to come up")
	}
	defer caller.Close()

	// Node 2 answers; node 1 sits on the call forever.
	peers.Register(1, func(c transport.Call, from int, m transport.Msg) {})
	peers.Register(2, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	peers.Spawn(1, "n1", func(p transport.Proc) { time.Sleep(200 * time.Millisecond) })
	peers.Spawn(2, "n2", func(p transport.Proc) { time.Sleep(200 * time.Millisecond) })
	go peers.Run()

	caller.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	caller.Spawn(0, "n0", func(p transport.Proc) {
		// Kill the peer endpoint once the multicall is surely in flight.
		time.AfterFunc(100*time.Millisecond, peers.Close)
		caller.Multicall(p, []transport.Target{
			{To: 1, M: tmsg{N: 1}},
			{To: 2, M: tmsg{N: 2}},
		})
	})
	errc := make(chan error, 1)
	go func() { errc <- caller.Run() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("expected an error after the peer disconnected mid-multicall")
		}
		if !strings.Contains(err.Error(), "lost connection") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("caller deadlocked after peer disconnect")
	}
}

// laneOrderRun sends nbulk slow bulk calls followed by one control ping
// (all in one overlapped Multicall) and reports how many bulk calls the
// receiver had finished when the ping's handler ran. Sender and receiver
// are separate endpoints, so the receiver's slow handlers cannot stall the
// sender's enqueues, and each bulk handler burns real time while holding
// node 1's state lock, which every call to node 1 waits for. The ping
// arrives on the control lane and overtakes the queued bulk dispatches.
func laneOrderRun(t *testing.T, nbulk int) int {
	t.Helper()
	addrs := reserveAddrs(t, 2)
	senderReady := make(chan *Runtime, 1)
	go func() {
		rt, err := New(Options{Procs: 2, Local: []int{0}, Addrs: addrs,
			DialTimeout: 10 * time.Second})
		if err != nil {
			t.Error(err)
			rt = nil
		}
		senderReady <- rt
	}()
	recv, err := New(Options{Procs: 2, Local: []int{1}, Addrs: addrs,
		DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sender := <-senderReady
	if sender == nil {
		t.Fatal("sender endpoint failed to come up")
	}

	var handled atomic.Int64
	var atPing atomic.Int64
	recv.Register(1, func(c transport.Call, from int, m transport.Msg) {
		switch r := m.(type) {
		case tbulk:
			// The delay holds node 1's state lock across the sleep, like a
			// real handler serving a large payload does (a sleep rather than
			// a busy-wait so the control readLoop gets CPU on small boxes).
			time.Sleep(2 * time.Millisecond)
			handled.Add(1)
			c.Reply(tbulk{N: r.N})
		case tmsg:
			atPing.Store(handled.Load())
			c.Reply(r)
		}
	})
	recv.Spawn(1, "n1", func(p transport.Proc) {})
	recvErr := make(chan error, 1)
	go func() { recvErr <- recv.Run() }()

	sender.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	sender.Spawn(0, "n0", func(p transport.Proc) {
		targets := make([]transport.Target, 0, nbulk+1)
		for i := 0; i < nbulk; i++ {
			targets = append(targets, transport.Target{To: 1, M: tbulk{N: i, Data: make([]byte, 8192)}})
		}
		targets = append(targets, transport.Target{To: 1, M: tmsg{N: -1, S: "ping"}})
		sender.Multicall(p, targets)
	})
	if err := sender.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	return int(atPing.Load())
}

// TestControlLaneOvertakesBulk pins the lane ordering contract the barrier
// hot path depends on: a latency-critical control message (a barRelease,
// an ownership grant) enqueued after a burst of bulk payloads must not
// wait for the whole burst to drain: the ping, on the control lane, must
// overtake most of the burst.
func TestControlLaneOvertakesBulk(t *testing.T) {
	const nbulk = 20
	multi := laneOrderRun(t, nbulk)
	if multi > nbulk/2 {
		t.Errorf("control lane: ping handled after %d/%d bulk calls, expected it to overtake the burst",
			multi, nbulk)
	}
	t.Logf("ping overtook at %d/%d bulk handled", multi, nbulk)
}

// reserveAddrs picks n free loopback ports.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	rts, err := New(Options{Procs: n})
	if err != nil {
		t.Fatal(err)
	}
	addrs := rts.Addrs()
	rts.Close()
	// Rebinding the just-released ports is reliable on loopback.
	return addrs
}
