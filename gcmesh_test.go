package adsm_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"adsm"
)

// reserveTestAddrs grabs n loopback listen addresses and releases them;
// rebinding the just-released ports is reliable on loopback.
func reserveTestAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// runEndpoints runs body on a cfg.Procs-node tcp mesh built as cfg.Procs
// cluster instances in this process, each hosting one node: same address
// mesh, disjoint hosted nodes, as separate OS processes would run it. Each
// instance allocates words page-aligned uint64s. It returns each
// instance's report, indexed by the node it hosts.
func runEndpoints(t *testing.T, cfg adsm.Config, words int, body func(w *adsm.Worker, s adsm.Shared[uint64])) []*adsm.Report {
	t.Helper()
	cfg.Transport = adsm.TCPTransport
	cfg.TCP.Addrs = reserveTestAddrs(t, cfg.Procs)
	cfg.TCP.DialTimeout = 10 * time.Second
	type end struct {
		cl  *adsm.Cluster
		s   adsm.Shared[uint64]
		err error
		rep *adsm.Report
	}
	ends := make([]end, cfg.Procs)
	// New blocks until the whole mesh is up, so the endpoints must come
	// up concurrently.
	var wg sync.WaitGroup
	for id := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.TCP.Local = []int{id}
			e := &ends[id]
			if e.cl, e.err = adsm.NewClusterErr(c); e.err == nil {
				e.s = adsm.AllocArrayPageAligned[uint64](e.cl, words)
			}
		}()
	}
	wg.Wait()
	for id, e := range ends {
		if e.err != nil {
			t.Fatalf("mesh construction, node %d: %v", id, e.err)
		}
	}
	for id := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &ends[id]
			e.rep, e.err = e.cl.Run(func(w *adsm.Worker) { body(w, e.s) })
		}()
	}
	wg.Wait()
	reps := make([]*adsm.Report, len(ends))
	for id, e := range ends {
		if e.err != nil {
			t.Fatalf("node %d: %v", id, e.err)
		}
		reps[id] = e.rep
	}
	return reps
}

// TestGCMultiProcess runs garbage collection on a multi-process mesh. Both
// nodes write one page and read each other's word, so WFS+WG's owner drops
// the page to multiple-writer mode and twins it too, and DiffSpaceLimit 1
// makes the barriers collect. The barrier manager derives the collection's
// keepers from its own node's state and the arrivals, never from the
// peer's memory: both runs must succeed, the manager must count
// collections, and each node must read the other's last write.
func TestGCMultiProcess(t *testing.T) {
	const iters = 4
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.WFSWG} {
		t.Run(proto.String(), func(t *testing.T) {
			var read [2]uint64 // the other node's word, read after the last write
			reps := runEndpoints(t, adsm.Config{Procs: 2, Protocol: proto, DiffSpaceLimit: 1}, pageWords,
				func(w *adsm.Worker, words adsm.Shared[uint64]) {
					for iter := 1; iter <= iters; iter++ {
						words.Set(w, w.ID(), uint64(iter))
						w.Barrier()
						read[w.ID()] = words.At(w, 1-w.ID())
						w.Barrier()
					}
				})
			for id, r := range read {
				if r != iters {
					t.Errorf("node %d read the other node's word as %d, want %d", id, r, iters)
				}
			}
			if gc := reps[0].Stats.GCRuns; gc == 0 {
				t.Error("the barrier manager ran no garbage collection")
			}
		})
	}
}

// TestAdaptiveMultiProcess runs the adaptive protocol's rules on a
// multi-process mesh. The barrier manager learns every node's writes and
// page facts from the barrier arrivals alone, so it switches pages there
// as it does on the simulator, and node 0's report counts the switches it
// applied. Under the wire profile, two nodes that take turns rewriting a
// whole page under a lock move it to WFS (the serialized-writer rule);
// three nodes that write one page concurrently move it to HLRC. Every
// node must read the final values.
func TestAdaptiveMultiProcess(t *testing.T) {
	const epochs = 6
	t.Run("turns", func(t *testing.T) {
		var last [2]uint64 // each node's smallest word at the end
		reps := runEndpoints(t, adsm.Config{Procs: 2, Protocol: adsm.Adaptive}, pageWords,
			func(w *adsm.Worker, words adsm.Shared[uint64]) {
				for e := 0; e < epochs; e++ {
					w.Lock(0)
					v := words.At(w, 0) + 1
					for i := range pageWords {
						words.Set(w, i, v)
					}
					w.Unlock(0)
					w.Barrier()
				}
				last[w.ID()] = words.At(w, 0)
				for i := range pageWords {
					last[w.ID()] = min(last[w.ID()], words.At(w, i))
				}
			})
		for id, v := range last {
			if v != 2*epochs {
				t.Errorf("node %d: smallest word %d, want %d", id, v, 2*epochs)
			}
		}
		if s := reps[0].Stats; s.SwitchToSW == 0 {
			t.Errorf("node 0 applied no switch to WFS (%d switches: %d to MW, %d to HLRC)",
				s.PolicySwitches, s.SwitchToMW, s.SwitchToHLRC)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		const procs = 3
		var bad [procs]int // words each node read wrong at the end
		reps := runEndpoints(t, adsm.Config{Procs: procs, Protocol: adsm.Adaptive}, pageWords,
			func(w *adsm.Worker, words adsm.Shared[uint64]) {
				for e := 1; e <= epochs; e++ {
					for i := w.ID(); i < pageWords; i += procs {
						words.Set(w, i, uint64(e))
					}
					w.Barrier()
				}
				for i := range pageWords {
					if words.At(w, i) != epochs {
						bad[w.ID()]++
					}
				}
			})
		for id, n := range bad {
			if n > 0 {
				t.Errorf("node %d read %d words other than %d", id, n, epochs)
			}
		}
		if s := reps[0].Stats; s.SwitchToHLRC == 0 {
			t.Errorf("node 0 applied no switch to HLRC (%d switches: %d to WFS/WFS+WG, %d to MW)",
				s.PolicySwitches, s.SwitchToSW, s.SwitchToMW)
		}
	})
}

// TestFirstTouchMultiProcess runs first-touch homes on a multi-process
// mesh. Only node 0's endpoint holds the directory, so every other node
// learns a binding by message: its own bind reply, or a flush that makes
// it a page's home. Each node first-touches its own page, then all nodes
// write one shared page over several epochs; every node must read the
// final values, and every non-zero endpoint must have asked node 0.
func TestFirstTouchMultiProcess(t *testing.T) {
	const procs, epochs = 3, 4
	shared := procs * pageWords // the first word of the shared page
	var bad [procs]int          // words each node read wrong at the end
	reps := runEndpoints(t, adsm.Config{Procs: procs, Protocol: adsm.HLRC, HomePolicy: adsm.FirstTouchHomes},
		(procs+1)*pageWords,
		func(w *adsm.Worker, words adsm.Shared[uint64]) {
			for i := range pageWords {
				words.Set(w, w.ID()*pageWords+i, uint64(100+w.ID()))
			}
			w.Barrier()
			for e := 1; e <= epochs; e++ {
				for i := w.ID(); i < pageWords; i += procs {
					words.Set(w, shared+i, uint64(e))
				}
				w.Barrier()
			}
			for p := range procs {
				for i := range pageWords {
					if words.At(w, p*pageWords+i) != uint64(100+p) {
						bad[w.ID()]++
					}
				}
			}
			for i := range pageWords {
				if words.At(w, shared+i) != epochs {
					bad[w.ID()]++
				}
			}
		})
	for id, n := range bad {
		if n > 0 {
			t.Errorf("node %d read %d words wrong", id, n)
		}
	}
	for id := 1; id < procs; id++ {
		if reps[id].Stats.HomeBinds == 0 {
			t.Errorf("node %d's endpoint sent no bind request", id)
		}
	}
}
