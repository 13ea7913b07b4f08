package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"adsm/internal/mem"
	"adsm/internal/sim"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// The layer ladder: each probe times calls into one layer's public
// functions from outside and reports the median. Probes run on an
// otherwise idle process: before the traced pass in a traced -workload
// run, once in the parent in the run of all workloads.

// ladder collects the probes' metrics. n is the number of timed calls (or
// batches of calls) behind each median.
type ladder struct {
	n   int
	m   metrics
	buf *spanBuf
}

// runLadder runs every probe, bottom layer first.
func runLadder(n int, tr *tracer) (metrics, error) {
	l := &ladder{n: n, m: metrics{}, buf: tr.buf(64)}
	for _, p := range []struct {
		layer string
		run   func() error
	}{
		{"mem", l.probeMem}, {"vc", l.probeVC}, {"transport", l.probeWire}, {"sim", l.probeSim},
		{"tcp", l.probeTCP}, {"core", l.probeCore}, {"kv", l.probeKV}, {"adsm", l.probeLifecycle},
	} {
		t0 := time.Now()
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s probes: %w", p.layer, err)
		}
		l.buf.add(p.layer, "probe "+p.layer, 0, 0, -1, t0, time.Now())
	}
	return l.m, nil
}

// ns reports the median of sorted nanosecond samples under name.
func (l *ladder) ns(name string, sorted []float64) { l.m.set(name, quantile(sorted, 0.5), "ns") }

// us reports the q-quantile of sorted nanosecond samples in microseconds.
func (l *ladder) us(name string, sorted []float64, q float64) {
	l.m.set(name, quantile(sorted, q)/1e3, "us")
}

// ms reports the median of sorted nanosecond samples in milliseconds.
func (l *ladder) ms(name string, sorted []float64) { l.m.set(name, quantile(sorted, 0.5)/1e6, "ms") }

// Results the compiler must believe are used.
var (
	sinkBytes []byte
	sinkDiff  *mem.Diff
	sinkVC    vc.VC
	sinkBool  bool
	sinkMsg   transport.Msg
)

// allocsPer is the mean number of heap allocations one call of fn makes.
func allocsPer(calls int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// probeMem times twinning, diffing and applying one page at three
// dirtiness levels: one 64-byte run (a kv slot), every other word, and
// the whole page.
func (l *ladder) probeMem() error {
	rng := rand.New(rand.NewSource(1))
	twin := mem.NewPage()
	rng.Read(twin)
	dirtied := func(dirty func(off int) bool) []byte {
		cur := mem.Twin(twin)
		for off := 0; off < mem.PageSize; off += mem.WordSize {
			if dirty(off) {
				cur[off] ^= 0xff
			}
		}
		return cur
	}
	sparse := dirtied(func(off int) bool { return off >= 1024 && off < 1024+64 })
	dense := dirtied(func(off int) bool { return off%(2*mem.WordSize) == 0 })
	full := dirtied(func(int) bool { return true })

	l.ns("mem.twin_ns", timeBatched(l.n, 16, func() { sinkBytes = mem.Twin(twin) }))
	l.ns("mem.makediff_sparse_ns", timeBatched(l.n, 8, func() { sinkDiff = mem.MakeDiff(0, twin, sparse) }))
	l.ns("mem.makediff_dense_ns", timeBatched(l.n, 2, func() { sinkDiff = mem.MakeDiff(0, twin, dense) }))
	l.ns("mem.makediff_full_ns", timeBatched(l.n, 8, func() { sinkDiff = mem.MakeDiff(0, twin, full) }))
	l.m.set("mem.makediff_allocs", allocsPer(l.n, func() { sinkDiff = mem.MakeDiff(0, twin, dense) }), "count")

	dst := mem.NewPage()
	dSparse, dFull := mem.MakeDiff(0, twin, sparse), mem.MakeDiff(0, twin, full)
	l.ns("mem.apply_sparse_ns", timeBatched(l.n, 64, func() { dSparse.Apply(dst) }))
	l.ns("mem.apply_full_ns", timeBatched(l.n, 16, func() { dFull.Apply(dst) }))
	return nil
}

// probeVC times the vector-clock operations every acquire and interval
// performs, at the paper's eight processors.
func (l *ladder) probeVC() error {
	a, b, c := vc.New(8), vc.New(8), vc.New(8)
	for i := range a {
		a[i], b[i] = int32(10+i), int32(10+i+i%2) // b dominates a, half the components strictly
	}
	l.ns("vc.join_ns", timeBatched(l.n, 256, func() { copy(c, a); c.Join(b) })) // the copy keeps each join doing its writes
	l.ns("vc.leq_ns", timeBatched(l.n, 256, func() { sinkBool = a.Leq(b) }))
	l.ns("vc.copy_ns", timeBatched(l.n, 256, func() { sinkVC = a.Copy() }))
	return nil
}

// probeWire times the binary codec round trip (WireBody then DecodeWire)
// of a three-integer control message and a 4 KB page message.
func (l *ladder) probeWire() error {
	for _, c := range []struct {
		name string
		msg  transport.Msg
	}{
		{"transport.wire_ctl_ns", benchCtl{A: 1, B: 300, C: 70000}},
		{"transport.wire_page_ns", benchPage{N: 7, Data: make([]byte, mem.PageSize)}},
	} {
		codec, ok := transport.CodecOf(c.msg)
		if !ok {
			return fmt.Errorf("%T has no codec", c.msg)
		}
		var err error
		l.ns(c.name, timeBatched(l.n, 16, func() {
			body, _ := transport.WireBody(c.msg)
			if sinkMsg, err = codec.DecodeWire(body); err != nil {
				panic(err) // the benchmark's own codec rejecting its own bytes
			}
		}))
	}
	return nil
}

// probeSim times the simulator's two primitives in wall-clock terms:
// eight processes advancing their clocks round-robin, and an echo call
// between two nodes; and the engine's event rate over the echo run.
func (l *ladder) probeSim() error {
	const advances = 200 // per process and sample
	e := sim.NewEngine()
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Proc) {
			for j := 0; j < advances*l.n/8; j++ {
				p.Advance(sim.Time(1000 + p.ID()))
			}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return err
	}
	l.m.set("sim.advance_ns", float64(time.Since(t0))/float64(advances*l.n), "ns")

	e = sim.NewEngine()
	nt := sim.NewNet(e, 2, sim.DefaultNetParams())
	nt.Register(1, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	var calls []float64
	nt.Spawn(0, "caller", func(p transport.Proc) {
		calls = timeBatched(l.n, 16, func() { sinkMsg = nt.Call(p, 1, benchCtl{A: 1}) })
	})
	nt.Spawn(1, "echo", func(transport.Proc) {})
	t0 = time.Now()
	if err := nt.Run(); err != nil {
		return err
	}
	l.ns("sim.call_ns", calls)
	l.m.set("sim.events_per_s", float64(e.Executed())/time.Since(t0).Seconds(), "1/s")
	return nil
}
