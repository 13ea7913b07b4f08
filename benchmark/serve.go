package main

import (
	"runtime"
	"sort"
	"time"

	"adsm"
	"adsm/internal/kv"
)

// serveMix is one serving traffic mix over the default zipfian table
// (theta 0.99, 4096 keys). opsPerSecond sizes the run: each worker issues
// opsPerSecond operations per second of requested pass length, so the work
// is fixed by the benchmark and a faster system finishes sooner.
type serveMix struct {
	readPct, deletePct int
	opsPerSecond       float64
}

// setups is how many times a workload with one timed cluster sets up, so
// that setup_s is a median and not a single reading: once per second of
// pass length (fifteen times in an archived run), at least three times.
func (sz size) setups() int { return max(3, int(sz.seconds)) }

// settle collects the garbage of whatever ran before, so that every timed
// set-up starts from the heap a fresh process would give it. Without it a
// set-up of 10-40 ms reads up to twice as long whenever the collection of
// the previous cluster's shared memory falls into it, and the median of a
// handful of set-ups moved by more than its own bound from run to run.
func settle() { runtime.GC() }

// runServe measures one closed-loop serving run: four SPMD workers, each
// issuing its next operation when the last one returns (DSM callers wait
// for their reply), between an opening and a closing barrier. The
// benchmark drives kv.Table itself and keeps every op's raw latency;
// kv.Bench's log-bucketed histogram would quantise them to ~6 %.
func runServe(mix serveMix, sz size, tr *tracer) *pass {
	wl := kv.DefaultWorkload()
	wl.Interval = 0
	wl.ReadPct, wl.DeletePct = mix.readPct, mix.deletePct
	wl.Seed = sz.seed
	wl.OpsPerWorker = max(int(mix.opsPerSecond*sz.seconds), 100)
	p := &pass{unitsPerRound: procs * wl.OpsPerWorker, attempted: procs * wl.OpsPerWorker}
	main := tr.buf(64)

	// Set up several times; the last cluster is the one that serves. The
	// others are run empty, which is how a tcp cluster is torn down.
	var cl *adsm.Cluster
	var tab *kv.Table
	var sched [procs][]kv.Op
	for i := 0; i < sz.setups(); i++ {
		if cl != nil {
			if _, err := cl.Run(func(*adsm.Worker) {}); err != nil {
				p.fail("tear down spare cluster: %v", err)
				return p
			}
		}
		settle()
		t0 := time.Now()
		var err error
		if cl, err = adsm.NewClusterErr(tcpConfig(procs, adsm.Adaptive)); err != nil {
			p.fail("%v", err)
			return p
		}
		t1 := time.Now()
		tab = kv.New(cl, wl.Keys, 0)
		for id := range sched {
			sched[id] = wl.Schedule(id, procs)
		}
		t2 := time.Now()
		main.add("adsm", "NewCluster", 0, 0, -1, t0, t1)
		main.add("kv", "kv.New+Schedule", 0, 0, -1, t1, t2)
		p.setup = append(p.setup, t2.Sub(t0).Seconds())
	}

	// Everything the timed loop writes is allocated here.
	type worker struct {
		lat        []int64    // per-op latency, nanoseconds
		got        []kv.Value // what each Get returned
		hit        []bool     // whether it returned anything
		start, end time.Time  // after the opening, after the closing barrier
		spans      *spanBuf
	}
	var ws [procs]worker
	for id := range ws {
		n := wl.OpsPerWorker
		ws[id] = worker{lat: make([]int64, n), got: make([]kv.Value, n), hit: make([]bool, n), spans: tr.buf(n)}
	}
	opNames := [...]string{kv.OpGet: "Get", kv.OpPut: "Put", kv.OpDelete: "Delete"}
	var sum uint64
	runSpan := main.nextID()

	t0 := time.Now()
	rep, err := cl.Run(func(w *adsm.Worker) {
		id := w.ID()
		me := &ws[id]
		w.Barrier()
		me.start = time.Now()
		prev := me.start
		for j, op := range sched[id] {
			switch op.Kind {
			case kv.OpGet:
				me.got[j], me.hit[j] = tab.Get(w, op.Key)
			case kv.OpPut:
				tab.Put(w, op.Key, op.Val)
			case kv.OpDelete:
				tab.Delete(w, op.Key)
			}
			now := time.Now()
			me.lat[j] = int64(now.Sub(prev))
			me.spans.add("kv", opNames[op.Kind], id+1, id+1, runSpan, prev, now)
			prev = now
		}
		w.Barrier()
		me.end = time.Now()
		if id == 0 {
			sum = tab.Checksum(w)
		}
		w.Barrier()
	})
	t1 := time.Now()
	main.add("adsm", "Cluster.Run serve", 0, 0, -1, t0, t1)
	if err != nil {
		p.fail("%v", err)
		return p
	}
	p.rep.add(rep)

	// Oracles: the final table must match the host replay of the
	// schedules, and no Get may return a value never written to its key.
	if want := wl.ExpectedChecksum(procs); sum != want {
		p.fail("table checksum %#x, host replay gives %#x", sum, want)
	}
	written := map[uint64]map[kv.Value]bool{}
	for id := range sched {
		for _, op := range sched[id] {
			if op.Kind == kv.OpPut {
				if written[op.Key] == nil {
					written[op.Key] = map[kv.Value]bool{}
				}
				written[op.Key][op.Val] = true
			}
		}
	}
	for id := range sched {
		for j, op := range sched[id] {
			if op.Kind == kv.OpGet && ws[id].hit[j] && !written[op.Key][ws[id].got[j]] {
				p.fail("worker %d op %d: Get(%d) returned a value never written to that key", id, j, op.Key)
			}
		}
	}
	main.add("benchmark", "oracle serve", 0, 0, -1, t1, time.Now())

	first, last := ws[0].start, ws[0].end
	for _, w := range ws[1:] {
		if w.start.Before(first) {
			first = w.start
		}
		if w.end.After(last) {
			last = w.end
		}
	}
	p.rounds = []float64{last.Sub(first).Seconds()}

	quarter := wl.OpsPerWorker / 4
	p.opNS = make([]float64, 0, p.unitsPerRound)
	for id, w := range ws {
		var q1, q4 int64
		for j, ns := range w.lat {
			p.opNS = append(p.opNS, float64(ns))
			if tr != nil {
				k := sched[id][j].Kind
				p.kvOps[k] = append(p.kvOps[k], float64(ns))
			}
			if j < quarter {
				q1 += ns
			}
			if j >= len(w.lat)-quarter {
				q4 += ns
			}
		}
		p.kvQ1 += ratio(float64(quarter)*1e9, float64(q1))
		p.kvQ4 += ratio(float64(quarter)*1e9, float64(q4))
	}
	sort.Float64s(p.opNS)
	for k := range p.kvOps {
		sort.Float64s(p.kvOps[k])
	}
	return p
}
