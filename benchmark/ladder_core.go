package main

import (
	"fmt"
	"time"

	"adsm"
	"adsm/internal/kv"
)

// Probes of the protocol engine, the kv table and the cluster lifecycle,
// all through the public adsm API on the in-process tcp mesh. A worker
// body may time its own calls, but it must never wait on anything but the
// DSM: it holds the runtime's state lock whenever it is not blocked in a
// call, so worker-to-worker ordering is done with barriers.

// runCluster builds a tcp cluster of n nodes, lets alloc place its shared
// data, and runs body on every node.
func runCluster(n int, proto adsm.Protocol, alloc func(cl *adsm.Cluster), body func(w *adsm.Worker)) error {
	cl, err := adsm.NewClusterErr(tcpConfig(n, proto))
	if err != nil {
		return err
	}
	if alloc != nil {
		alloc(cl)
	}
	_, err = cl.Run(body)
	return err
}

// probeCore times one fault made valid under each protocol, lock
// hand-offs, barrier rounds and the span fast path.
func (l *ladder) probeCore() error {
	// Faults: node 1 dirties a page; after a barrier node 0 times the
	// read that fetches it and then the first write to the now valid,
	// read-only page. The page's static home is node 2, so neither side
	// is spared its fault by being the home. Two barriers per sample, so
	// a quarter of the usual sample count.
	n := max(l.n/4, 10)
	const words = adsm.PageSize / 8
	for _, proto := range protocols {
		var pages adsm.Shared[uint64]
		var at int // first word of the page homed at node 2
		read, write := make([]float64, n), make([]float64, n)
		err := runCluster(procs, proto.p,
			func(cl *adsm.Cluster) {
				pages = adsm.AllocArrayPageAligned[uint64](cl, procs*words)
				first := pages.Base() / adsm.PageSize
				at = (2 + procs - first%procs) % procs * words
			},
			func(w *adsm.Worker) {
				for i := 0; i < n; i++ {
					if w.ID() == 1 {
						pages.Set(w, at, uint64(i+1))
					}
					w.Barrier()
					if w.ID() == 0 {
						t0 := time.Now()
						v := pages.At(w, at)
						t1 := time.Now()
						pages.Set(w, at+1, v)
						read[i], write[i] = float64(t1.Sub(t0)), float64(time.Since(t1))
					}
					w.Barrier()
				}
			})
		if err != nil {
			return fmt.Errorf("faults under %s: %w", proto.label, err)
		}
		l.us("core.fault_read_us."+proto.label, sortedCopy(read), 0.5)
		l.us("core.fault_write_us."+proto.label, sortedCopy(write), 0.5)
	}

	// Barrier rounds at 2, 4 and 8 nodes, timed at node 0.
	for _, np := range []int{2, 4, 8} {
		var rounds []float64
		err := runCluster(np, adsm.Adaptive, nil, func(w *adsm.Worker) {
			if w.ID() == 0 {
				rounds = timeEach(l.n, w.Barrier)
				return
			}
			for i := 0; i < l.n; i++ {
				w.Barrier()
			}
		})
		if err != nil {
			return fmt.Errorf("barriers at %d nodes: %w", np, err)
		}
		l.us(fmt.Sprintf("core.barrier_us.p%d", np), rounds, 0.5)
	}

	// Locks and spans on the 4-node cluster. Hand-off: nodes 0 and 1 take
	// turns acquiring one lock, a barrier between turns, so every timed
	// acquire finds the lock at the other node; the dirty variant writes a
	// kv slot's worth (64 bytes) per hold, which the next acquire must be
	// told about. Local: node 0 re-acquires a lock it holds the token of.
	var data adsm.Shared[uint64]
	clean, dirty := make([]float64, n), make([]float64, n)
	var local, span []float64
	handoff := func(w *adsm.Worker, lock int, out []float64, write bool) {
		for i := range out {
			if w.ID() == i%2 {
				t0 := time.Now()
				w.Lock(lock)
				out[i] = float64(time.Since(t0))
				if write {
					data.Fill(w, 0, 8, uint64(i))
				}
				w.Unlock(lock)
			}
			w.Barrier()
		}
	}
	err := runCluster(procs, adsm.Adaptive,
		func(cl *adsm.Cluster) { data = adsm.AllocArrayPageAligned[uint64](cl, adsm.PageSize/8) },
		func(w *adsm.Worker) {
			handoff(w, 1, clean, false)
			handoff(w, 2, dirty, true)
			if w.ID() != 0 {
				return
			}
			local = timeBatched(l.n, 16, func() { w.Lock(3); w.Unlock(3) })
			sinkBool = data.At(w, 0) == 0 // make the page valid here
			span = timeBatched(l.n, 16, func() {
				data.Span(w, 0, data.Len(), adsm.Read, func(int, []uint64) {})
			})
		})
	if err != nil {
		return fmt.Errorf("locks and spans: %w", err)
	}
	l.us("core.lock_handoff_us", sortedCopy(clean), 0.5)
	l.us("core.lock_handoff_dirty_us", sortedCopy(dirty), 0.5)
	l.ns("core.lock_local_ns", local)
	l.ns("core.span_valid_ns", span)
	return nil
}

// probeKV times the table on a one-node cluster: its own cost, with locks
// that are always local and pages that are always valid.
func (l *ladder) probeKV() error {
	const keys = 4096
	var tab *kv.Table
	var get, put []float64
	err := runCluster(1, adsm.Adaptive,
		func(cl *adsm.Cluster) { tab = kv.New(cl, keys, 0) },
		func(w *adsm.Worker) {
			for k := uint64(0); k < keys; k++ {
				tab.Put(w, k, kv.Value{k})
			}
			k := uint64(0)
			next := func() uint64 { k = (k + 1031) % keys; return k } // a stride coprime to the key count
			put = timeBatched(l.n, 16, func() { tab.Put(w, next(), kv.Value{k, k}) })
			get = timeBatched(l.n, 16, func() { _, sinkBool = tab.Get(w, next()) })
		})
	if err != nil {
		return err
	}
	l.ns("kv.get_local_ns", get)
	l.ns("kv.put_local_ns", put)
	return nil
}

// probeLifecycle times what a run costs beyond its program: building a
// 4-node tcp cluster, and the wall time of Cluster.Run around a body that
// is one barrier. On tcp the report's Elapsed (wall time of the bodies) is
// subtracted, leaving start-up, goodbye and teardown; on the simulator
// Elapsed is virtual, so the whole wall time of Run is the overhead.
func (l *ladder) probeLifecycle() error {
	var build, tcpOver, simOver []float64
	oneBarrier := func(w *adsm.Worker) { w.Barrier() }
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		cl, err := adsm.NewClusterErr(tcpConfig(procs, adsm.Adaptive))
		if err != nil {
			return err
		}
		t1 := time.Now()
		rep, err := cl.Run(oneBarrier)
		if err != nil {
			return err
		}
		build = append(build, float64(t1.Sub(t0)))
		tcpOver = append(tcpOver, float64(time.Since(t1)-rep.Elapsed))

		sim := adsm.NewCluster(adsm.Config{Procs: procs, Protocol: adsm.Adaptive})
		t2 := time.Now()
		if _, err := sim.Run(oneBarrier); err != nil {
			return err
		}
		simOver = append(simOver, float64(time.Since(t2)))
	}
	l.ms("adsm.newcluster_ms", sortedCopy(build))
	l.ms("adsm.run_overhead_ms.tcp", sortedCopy(tcpOver))
	l.ms("adsm.run_overhead_ms.sim", sortedCopy(simOver))
	return nil
}
