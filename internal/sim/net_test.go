package sim

import (
	"strings"
	"testing"

	"adsm/internal/stats"
	"adsm/internal/transport"
)

// counts returns the traffic nt has counted so far.
func counts(nt *Net) stats.Counters {
	var s stats.Counters
	nt.Count(&s)
	return s
}

type testMsg struct {
	kind string
	n    int
}

func (m testMsg) Size() int { return m.n }

func TestCallRoundTrip(t *testing.T) {
	e := NewEngine()
	nt := NewNet(e, 2, DefaultNetParams())
	nt.Register(1, func(c transport.Call, from int, m Msg) {
		req := m.(testMsg)
		c.Reply(testMsg{kind: "resp:" + req.kind, n: 8})
	})
	nt.Register(0, func(c transport.Call, from int, m Msg) { t.Error("unexpected call to node 0") })
	var resp Msg
	var elapsed Time
	e.Spawn("caller", func(p *Proc) {
		start := p.Now()
		resp = nt.Call(p, 1, testMsg{kind: "ping", n: 8})
		elapsed = p.Now() - start
	})
	e.Spawn("server", func(p *Proc) { p.Advance(10 * Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.(testMsg).kind != "resp:ping" {
		t.Fatalf("bad response %v", resp)
	}
	// Round trip of a small message should be ~1ms per the paper.
	if elapsed < 900*Microsecond || elapsed > 1100*Microsecond {
		t.Fatalf("small message RTT = %v, want ~1ms", elapsed)
	}
	if counts(nt).Messages != 2 {
		t.Fatalf("TotalMsgs = %d, want 2", counts(nt).Messages)
	}
}

func TestPageFetchLatencyMatchesPaper(t *testing.T) {
	// A remote miss bringing a 4096-byte page should take ~1921us.
	e := NewEngine()
	nt := NewNet(e, 2, DefaultNetParams())
	nt.Register(1, func(c transport.Call, from int, m Msg) {
		c.Reply(testMsg{kind: "page", n: 4096 + 24})
	})
	var elapsed Time
	e.Spawn("caller", func(p *Proc) {
		start := p.Now()
		nt.Call(p, 1, testMsg{kind: "pagereq", n: 24})
		elapsed = p.Now() - start
	})
	e.Spawn("server", func(p *Proc) { p.Advance(10 * Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 1850*Microsecond || elapsed > 2050*Microsecond {
		t.Fatalf("page fetch latency = %v, want ~1921us", elapsed)
	}
}

func TestMulticallElapsedIsMax(t *testing.T) {
	e := NewEngine()
	nt := NewNet(e, 4, DefaultNetParams())
	for i := 1; i < 4; i++ {
		i := i
		nt.Register(i, func(c transport.Call, from int, m Msg) {
			c.ReplyAfter(Time(i)*Millisecond, testMsg{kind: "r", n: 8})
		})
	}
	var elapsed Time
	e.Spawn("caller", func(p *Proc) {
		start := p.Now()
		res := nt.Multicall(p, []Target{
			{To: 1, M: testMsg{n: 8}},
			{To: 2, M: testMsg{n: 8}},
			{To: 3, M: testMsg{n: 8}},
		})
		elapsed = p.Now() - start
		if len(res) != 3 {
			t.Errorf("want 3 results, got %d", len(res))
		}
		for _, r := range res {
			if r == nil {
				t.Errorf("missing result")
			}
		}
	})
	for i := 1; i < 4; i++ {
		e.Spawn("server", func(p *Proc) { p.Advance(20 * Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Max per-call time = RTT + 3ms processing; must be well under the sum (6ms).
	rtt := 2*nt.latency(8) + 3*Millisecond
	if elapsed != rtt {
		t.Fatalf("multicall elapsed = %v, want %v (max, not sum)", elapsed, rtt)
	}
	if counts(nt).Messages != 6 {
		t.Fatalf("TotalMsgs = %d, want 6", counts(nt).Messages)
	}
}

func TestForwardChainCountsMessages(t *testing.T) {
	// caller(0) -> home(1) -> owner(2) -> reply to 0: 3 messages.
	e := NewEngine()
	nt := NewNet(e, 3, DefaultNetParams())
	nt.Register(1, func(c transport.Call, from int, m Msg) {
		c.Forward(2, testMsg{kind: "fwd", n: 16})
	})
	nt.Register(2, func(c transport.Call, from int, m Msg) {
		if from != 1 {
			t.Errorf("forwarded call sees from=%d, want 1", from)
		}
		if c.Origin() != 0 {
			t.Errorf("origin = %d, want 0", c.Origin())
		}
		c.Reply(testMsg{kind: "granted", n: 16})
	})
	e.Spawn("caller", func(p *Proc) {
		resp := nt.Call(p, 1, testMsg{kind: "req", n: 16})
		if resp.(testMsg).kind != "granted" {
			t.Errorf("bad resp %v", resp)
		}
	})
	e.Spawn("home", func(p *Proc) { p.Advance(20 * Millisecond) })
	e.Spawn("owner", func(p *Proc) { p.Advance(20 * Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts(nt).Messages != 3 {
		t.Fatalf("TotalMsgs = %d, want 3", counts(nt).Messages)
	}
}

func TestDeferredReply(t *testing.T) {
	// The handler parks the call and replies later (models lock queuing and
	// the SW ownership quantum).
	e := NewEngine()
	nt := NewNet(e, 2, DefaultNetParams())
	var pending transport.Call
	nt.Register(1, func(c transport.Call, from int, m Msg) {
		pending = c
		e.After(5*Millisecond, func() {
			pending.Reply(testMsg{kind: "late", n: 8})
		})
	})
	var elapsed Time
	e.Spawn("caller", func(p *Proc) {
		start := p.Now()
		nt.Call(p, 1, testMsg{n: 8})
		elapsed = p.Now() - start
	})
	e.Spawn("server", func(p *Proc) { p.Advance(20 * Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 5*Millisecond {
		t.Fatalf("deferred reply arrived too early: %v", elapsed)
	}
}

func TestSelfCallIsLocalAndFree(t *testing.T) {
	e := NewEngine()
	nt := NewNet(e, 1, DefaultNetParams())
	nt.Register(0, func(c transport.Call, from int, m Msg) {
		c.Reply(testMsg{kind: "self", n: 100})
	})
	e.Spawn("caller", func(p *Proc) {
		resp := nt.Call(p, 0, testMsg{n: 100})
		if resp.(testMsg).kind != "self" {
			t.Errorf("bad self reply")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts(nt).Messages != 0 || counts(nt).DataBytes != 0 {
		t.Fatalf("self call should not count traffic: msgs=%d bytes=%d", counts(nt).Messages, counts(nt).DataBytes)
	}
}

func TestBytesAccounting(t *testing.T) {
	e := NewEngine()
	nt := NewNet(e, 2, DefaultNetParams())
	nt.Register(1, func(c transport.Call, from int, m Msg) {
		c.Reply(testMsg{n: 1000})
	})
	e.Spawn("caller", func(p *Proc) { nt.Call(p, 1, testMsg{n: 200}) })
	e.Spawn("server", func(p *Proc) { p.Advance(20 * Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := int64(200 + HeaderBytes + 1000 + HeaderBytes)
	if counts(nt).DataBytes != want {
		t.Fatalf("TotalBytes = %d, want %d", counts(nt).DataBytes, want)
	}
	if nt.BytesSent[0] != int64(200+HeaderBytes) {
		t.Fatalf("node 0 bytes = %d", nt.BytesSent[0])
	}
}

// TestCallUnregisteredNodeFailsLoudly: a call to a node with no handler
// must surface as a Run error naming the failure, not crash the engine or
// deadlock the caller (the same invariant the tcp transport tests pin).
func TestCallUnregisteredNodeFailsLoudly(t *testing.T) {
	e := NewEngine()
	nt := NewNet(e, 2, DefaultNetParams())
	nt.Register(0, func(c transport.Call, from int, m Msg) { c.Reply(m) })
	// Node 1 deliberately registers no handler.
	e.Spawn("caller", func(p *Proc) {
		nt.Call(p, 1, testMsg{n: 4})
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected an error for a call to an unregistered node")
	}
	if !strings.Contains(err.Error(), "no handler registered") {
		t.Fatalf("unexpected error: %v", err)
	}
}
