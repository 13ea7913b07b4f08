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

// TestGCMultiProcess runs garbage collection on a multi-process mesh. Two
// cluster instances in this process stand in for two OS processes: same
// address mesh, disjoint hosted nodes. Both nodes write one page and read
// each other's word, so WFS+WG's owner drops the page to multiple-writer
// mode and twins it too, and DiffSpaceLimit 1 makes the barriers collect. The barrier manager derives the collection's
// keepers from its own node's state and the arrivals, never from the
// peer's memory: both runs must succeed, the manager must count
// collections, and each node must read the other's last write.
func TestGCMultiProcess(t *testing.T) {
	const iters = 4
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.WFSWG} {
		t.Run(proto.String(), func(t *testing.T) {
			addrs := reserveTestAddrs(t, 2)
			build := func(local []int) (*adsm.Cluster, adsm.Shared[uint64], error) {
				cl, err := adsm.NewClusterErr(adsm.Config{
					Procs:          2,
					Protocol:       proto,
					Transport:      adsm.TCPTransport,
					DiffSpaceLimit: 1,
					TCP: adsm.TCPConfig{
						Addrs:       addrs,
						Local:       local,
						DialTimeout: 10 * time.Second,
					},
				})
				if err != nil {
					return nil, adsm.Shared[uint64]{}, err
				}
				return cl, adsm.AllocArrayPageAligned[uint64](cl, pageWords), nil
			}

			// New blocks until the whole mesh is up, so the two endpoints
			// must come up concurrently (exactly like separate OS
			// processes would).
			type end struct {
				cl    *adsm.Cluster
				words adsm.Shared[uint64]
				err   error
				rep   *adsm.Report
				read  uint64 // the other node's word, read after the last write
			}
			var ends [2]end
			var wg sync.WaitGroup
			for id := range ends {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := &ends[id]
					e.cl, e.words, e.err = build([]int{id})
				}()
			}
			wg.Wait()
			if ends[0].err != nil || ends[1].err != nil {
				t.Fatalf("mesh construction: manager %v, peer %v", ends[0].err, ends[1].err)
			}
			for id := range ends {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := &ends[id]
					e.rep, e.err = e.cl.Run(func(w *adsm.Worker) {
						for iter := 1; iter <= iters; iter++ {
							e.words.Set(w, w.ID(), uint64(iter))
							w.Barrier()
							e.read = e.words.At(w, 1-w.ID())
							w.Barrier()
						}
					})
				}()
			}
			wg.Wait()

			for id, e := range ends {
				if e.err != nil {
					t.Fatalf("node %d: %v", id, e.err)
				}
				if e.read != iters {
					t.Errorf("node %d read the other node's word as %d, want %d", id, e.read, iters)
				}
			}
			if gc := ends[0].rep.Stats.GCRuns; gc == 0 {
				t.Error("the barrier manager ran no garbage collection")
			}
		})
	}
}
