package adsm_test

import (
	"errors"
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

// TestGCUnsupportedMultiProcess pins the failure mode of a
// garbage-collecting protocol on a multi-process transport: instead of a
// raw handler panic, the barrier manager's Run must return a clean error
// matching adsm.ErrGCUnsupported. Two cluster instances in this process
// stand in for two OS processes: same address mesh, disjoint hosted
// nodes. DiffSpaceLimit 1 makes the very first twin trigger collection.
func TestGCUnsupportedMultiProcess(t *testing.T) {
	addrs := reserveTestAddrs(t, 2)
	build := func(local []int) (*adsm.Cluster, adsm.Shared[uint64], error) {
		cl, err := adsm.NewClusterErr(adsm.Config{
			Procs:          2,
			Protocol:       adsm.MW,
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
		return cl, adsm.AllocArrayPageAligned[uint64](cl, 2*pageWords), nil
	}
	prog := func(words adsm.Shared[uint64]) func(w *adsm.Worker) {
		return func(w *adsm.Worker) {
			for iter := 0; iter < 4; iter++ {
				words.Set(w, w.ID()*pageWords, uint64(iter+1))
				w.Barrier()
			}
		}
	}

	// New blocks until the whole mesh is up, so the two endpoints must
	// come up concurrently (exactly like separate OS processes would).
	type end struct {
		cl    *adsm.Cluster
		words adsm.Shared[uint64]
		err   error
	}
	var mgr, peer end
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mgr.cl, mgr.words, mgr.err = build([]int{0})
	}()
	go func() {
		defer wg.Done()
		peer.cl, peer.words, peer.err = build([]int{1})
	}()
	wg.Wait()
	if mgr.err != nil || peer.err != nil {
		t.Fatalf("mesh construction: manager %v, peer %v", mgr.err, peer.err)
	}

	var mgrErr, peerErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, mgrErr = mgr.cl.Run(prog(mgr.words))
	}()
	go func() {
		defer wg.Done()
		_, peerErr = peer.cl.Run(prog(peer.words))
	}()
	wg.Wait()

	if !errors.Is(mgrErr, adsm.ErrGCUnsupported) {
		t.Errorf("manager error = %v, want errors.Is(..., ErrGCUnsupported)", mgrErr)
	}
	if peerErr == nil {
		t.Errorf("peer run succeeded; want a mesh-teardown error after the manager aborted")
	}
}
