package main

import (
	"sync/atomic"
	"time"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/transport/tcp"
)

// The benchmark's own wire messages, one per path a protocol message can
// take through the tcp runtime: a small control message with a binary
// codec, the same message left to the gob escape frame (the path acq* and
// hlrcFlush ride today), and a page-sized bulk message.

type benchCtl struct{ A, B, C int }

func (benchCtl) Size() int { return 24 }

type benchGob struct{ A, B, C int }

func (benchGob) Size() int { return 24 }

type benchPage struct {
	N    int
	Data []byte
}

func (m benchPage) Size() int { return 8 + len(m.Data) }

// wantPage in benchCtl.A asks the echo handler for a benchPage reply.
const wantPage = -1

func init() {
	transport.MustRegisterCodec(transport.Codec{
		Name: "bench.ctl", Msg: benchCtl{},
		AppendWire: func(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
			c := m.(benchCtl)
			for _, v := range [...]int{c.A, c.B, c.C} {
				b = transport.AppendUvarint(b, uint64(v))
			}
			return b, payloads
		},
		DecodeWire: func(body []byte) (transport.Msg, error) {
			r := transport.NewWireReader(body)
			c := benchCtl{A: r.Int(), B: r.Int(), C: r.Int()}
			return c, r.Close()
		},
	})
	transport.MustRegisterCodec(transport.Codec{Name: "bench.gob", Msg: benchGob{}})
	transport.MustRegisterCodec(transport.Codec{
		Name: "bench.page", Class: transport.ClassBulk, Msg: benchPage{},
		AppendWire: func(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
			p := m.(benchPage)
			b = transport.AppendUvarint(b, uint64(p.N))
			b = transport.AppendUvarint(b, uint64(len(p.Data)))
			return b, append(payloads, p.Data)
		},
		DecodeWire: func(body []byte) (transport.Msg, error) {
			r := transport.NewWireReader(body)
			p := benchPage{N: r.Int()}
			p.Data = r.Bytes(r.Int())
			return p, r.Close()
		},
	})
}

// newMesh builds an in-process mesh of n nodes as adsm's default tcp
// configuration does (two lanes plus the region lane), every node an echo
// server that answers a wantPage request with a 4 KB bulk reply.
func newMesh(n int) (*tcp.Runtime, error) {
	rt, err := tcp.New(tcp.Options{Procs: n, OneSided: true})
	if err != nil {
		return nil, err
	}
	page := mem.NewPage()
	for id := 0; id < n; id++ {
		rt.Register(id, func(c transport.Call, from int, m transport.Msg) {
			if req, ok := m.(benchCtl); ok && req.A == wantPage {
				c.Reply(benchPage{N: req.B, Data: page})
				return
			}
			c.Reply(m)
		})
	}
	return rt, nil
}

// runMesh runs body as node 0 and others as every other node, and times
// the whole Run. Handlers keep serving after a node's body has returned.
func runMesh(rt *tcp.Runtime, n int, body, others func(p transport.Proc)) (time.Duration, error) {
	rt.Spawn(0, "probe", body)
	for id := 1; id < n; id++ {
		rt.Spawn(id, "peer", others)
	}
	t0 := time.Now()
	err := rt.Run()
	return time.Since(t0), err
}

// probeTCP times the tcp runtime from outside: mesh formation and
// teardown, and round trips from node 0 over each message path on a
// 4-node mesh, idle and while two other nodes keep the runtime busy.
func (l *ladder) probeTCP() error {
	idle := func(transport.Proc) {}
	var setup4, setup8, teardown []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		rt, err := newMesh(procs)
		if err != nil {
			return err
		}
		setup4 = append(setup4, float64(time.Since(t0)))
		d, err := runMesh(rt, procs, idle, idle)
		if err != nil {
			return err
		}
		teardown = append(teardown, float64(d))
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		rt, err := newMesh(8)
		if err != nil {
			return err
		}
		setup8 = append(setup8, float64(time.Since(t0)))
		if _, err := runMesh(rt, 8, idle, idle); err != nil {
			return err
		}
	}
	l.ms("tcp.mesh_setup_ms.p4", sortedCopy(setup4))
	l.ms("tcp.mesh_setup_ms.p8", sortedCopy(setup8))
	l.ms("tcp.teardown_ms", sortedCopy(teardown))

	rt, err := newMesh(procs)
	if err != nil {
		return err
	}
	var rtt, gob, page, multi []float64
	if _, err := runMesh(rt, procs, func(p transport.Proc) {
		rtt = timeEach(2*l.n, func() { sinkMsg = rt.Call(p, 1, benchCtl{A: 1, B: 2, C: 3}) })
		gob = timeEach(l.n, func() { sinkMsg = rt.Call(p, 1, benchGob{A: 1, B: 2, C: 3}) })
		page = timeEach(l.n, func() { sinkMsg = rt.Call(p, 1, benchCtl{A: wantPage}) })
		targets := []transport.Target{{To: 1, M: benchCtl{}}, {To: 2, M: benchCtl{}}, {To: 3, M: benchCtl{}}}
		multi = timeEach(l.n, func() { sinkMsg = rt.Multicall(p, targets)[0] })
	}, idle); err != nil {
		return err
	}
	l.us("tcp.call_rtt_us", rtt, 0.5)
	l.us("tcp.call_rtt_p99_us", rtt, 0.99)
	l.us("tcp.call_rtt_gob_us", gob, 0.5)
	l.us("tcp.call_page_us", page, 0.5)
	l.us("tcp.multicall3_us", multi, 0.5)

	// The same 0->1 round trip while nodes 2 and 3 ping each other with
	// 200 us of compute between calls. A body holds the runtime's state
	// lock while it computes, so this is the time node 1's handler and
	// node 0's completion wait for that lock.
	if rt, err = newMesh(procs); err != nil {
		return err
	}
	var stop atomic.Bool
	var busy []float64
	rt.Spawn(1, "peer", idle)
	for _, pair := range [][2]int{{2, 3}, {3, 2}} {
		rt.Spawn(pair[0], "busy", func(p transport.Proc) {
			for !stop.Load() {
				rt.Call(p, pair[1], benchCtl{})
				for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
				}
			}
		})
	}
	rt.Spawn(0, "probe", func(p transport.Proc) {
		defer stop.Store(true)
		busy = timeEach(l.n, func() { sinkMsg = rt.Call(p, 1, benchCtl{A: 1, B: 2, C: 3}) })
	})
	if err := rt.Run(); err != nil {
		return err
	}
	// The mean, not the median: the wait falls on the few calls that meet a
	// computing body, and most calls slip through between them.
	var sum float64
	for _, ns := range busy {
		sum += ns
	}
	l.m.set("tcp.call_rtt_busy_us", sum/float64(len(busy))/1e3, "us")
	return nil
}
