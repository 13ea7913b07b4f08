package adsm_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"adsm"
	"adsm/internal/core"
)

// TestAdaptiveFrozenEquivalence pins the adaptive meta-protocol to each
// static protocol and checks the run is indistinguishable from the static
// protocol proper: same simulated elapsed time, same full Stats block
// (message counts, byte counts, fault counts — everything), same result.
// This is the regression pin for the delegation seam: the meta-protocol
// must add zero behavior beyond the switch decisions themselves.
func TestAdaptiveFrozenEquivalence(t *testing.T) {
	for _, name := range []string{"SOR", "IS"} {
		for _, proto := range adsm.Protocols() {
			if proto == adsm.Adaptive {
				continue
			}
			proto := proto
			t.Run(name+"/"+proto.String(), func(t *testing.T) {
				appS, repS, err := runApp(name, 4, proto)
				if err != nil {
					t.Fatalf("static %v: %v", proto, err)
				}
				appF, repF, err := runAppEngine(name, 4, adsm.Adaptive, frozenAt(proto))
				if err != nil {
					t.Fatalf("frozen %v: %v", proto, err)
				}
				if repS.Elapsed != repF.Elapsed {
					t.Errorf("elapsed: static %v, frozen %v", repS.Elapsed, repF.Elapsed)
				}
				if !reflect.DeepEqual(repS.Stats, repF.Stats) {
					t.Errorf("stats diverge:\nstatic %+v\nfrozen %+v", repS.Stats, repF.Stats)
				}
				if appS.Result() != appF.Result() {
					t.Errorf("result: static %v, frozen %v", appS.Result(), appF.Result())
				}
			})
		}
	}
}

// TestAdaptiveTCPConcurrency hammers the per-page policy seam under the
// real TCP transport, where handler goroutines serving remote faults read
// page protocol bindings concurrently with the application goroutines
// applying barrier-epoch policy switches. The program is built to force
// switches in both directions — a contended page is first bulk-rewritten
// by node 0 alone (promotion to the single-writer protocol), then written
// by several nodes (demotion) — while each node's private page is read by
// a neighbour every epoch, keeping remote page-serving handlers busy as
// the switches land. With every node writing the hot page the demotion
// may go to MW or, under the wire cost profile, straight to HLRC; with
// fewer writers than the profile's HLRC threshold it must go to MW. The
// readers=3 case has all three peers read each private page every epoch,
// so several serves of one page race its writes, diff applies and the
// switches themselves. Run under -race this is the data-race check for
// the per-page delegation refactor; without -race it still pins that
// every value read is exact and that both switch directions fire over
// TCP.
func TestAdaptiveTCPConcurrency(t *testing.T) {
	const procs = 4
	few := core.WireProfile().HLRCWriters - 1
	for _, c := range []struct{ writers, readers int }{{procs, 1}, {few, 1}, {procs, procs - 1}} {
		name := fmt.Sprintf("writers=%d", c.writers)
		if c.readers > 1 {
			name += fmt.Sprintf(",readers=%d", c.readers)
		}
		t.Run(name, func(t *testing.T) {
			rep := runAdaptiveHotPage(t, procs, c.writers, c.readers)
			demoted := rep.Stats.SwitchToMW + rep.Stats.SwitchToHLRC
			if c.writers == few {
				demoted = rep.Stats.SwitchToMW
			}
			if rep.Stats.SwitchToSW == 0 || demoted == 0 {
				t.Errorf("expected switches both ways over TCP: toSW=%d toMW=%d toHLRC=%d (total %d)",
					rep.Stats.SwitchToSW, rep.Stats.SwitchToMW, rep.Stats.SwitchToHLRC,
					rep.Stats.PolicySwitches)
			}
		})
	}
}

// runAdaptiveHotPage runs TestAdaptiveTCPConcurrency's program on a
// procs-node TCP mesh with the first hotWriters nodes writing the hot page
// in the second half of the run, and each node reading the private pages
// of its next readers neighbours every epoch.
func runAdaptiveHotPage(t *testing.T, procs, hotWriters, readers int) *adsm.Report {
	const epochs = 8
	cl := adsm.NewCluster(adsm.Config{
		Procs:     procs,
		Protocol:  adsm.Adaptive,
		Transport: adsm.TCPTransport,
	})
	words := adsm.AllocArrayPageAligned[uint64](cl, (procs+1)*pageWords)
	hot := procs * pageWords
	rep, err := cl.Run(func(w *adsm.Worker) {
		id := w.ID()
		own := id * pageWords
		for epoch := 0; epoch < epochs; epoch++ {
			for off := 0; off < pageWords; off += 8 {
				words.Set(w, own+off, uint64(epoch*100+id+1))
			}
			if epoch < epochs/2 {
				if id == 0 {
					for off := 0; off < pageWords; off += 8 {
						words.Set(w, hot+off, uint64(epoch+1))
					}
				}
			} else if id < hotWriters {
				words.Set(w, hot+8*id, uint64(epoch*10+id+1))
			}
			w.Barrier()
			for d := 1; d <= readers; d++ {
				peer := (id + d) % procs
				var sum uint64
				for off := 0; off < pageWords; off += 8 {
					sum += words.At(w, peer*pageWords+off)
				}
				if want := uint64(64) * uint64(epoch*100+peer+1); sum != want {
					t.Errorf("node %d epoch %d: peer %d sum %d, want %d", id, epoch, peer, sum, want)
				}
			}
			w.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAdaptiveSwitches checks the unfrozen meta-protocol actually moves
// pages in the directions the workloads call for, and stays correct while
// doing so. SOR's interior pages are single-writer after the first epochs,
// so the detector must promote pages to the single-writer protocol; IS's
// shared bucket array is bulk migratory with all processors writing, which
// on the simulator's paper cost profile is the home-based protocol's
// territory. (On the tcp mesh the wire profile's serialized-writer rule
// gives it to WFS instead: internal/apps TestAdaptiveTCPMatchesSequential.)
func TestAdaptiveSwitches(t *testing.T) {
	cases := []struct {
		app  string
		want func(s adsm.Stats) (int64, string)
	}{
		{"SOR", func(s adsm.Stats) (int64, string) { return s.SwitchToSW, "SwitchToSW" }},
		{"IS", func(s adsm.Stats) (int64, string) { return s.SwitchToHLRC, "SwitchToHLRC" }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app, func(t *testing.T) {
			seqApp, _, err := runApp(tc.app, 1, adsm.Adaptive)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			seq := seqApp.Result()
			app, rep, err := runApp(tc.app, 8, adsm.Adaptive)
			if err != nil {
				t.Fatalf("adaptive: %v", err)
			}
			if got := app.Result(); math.Abs(got-seq) > math.Abs(seq)*1e-9 {
				t.Errorf("result %v != sequential %v", got, seq)
			}
			if rep.Stats.PolicySwitches == 0 {
				t.Errorf("no policy switches recorded")
			}
			if n, label := tc.want(rep.Stats); n == 0 {
				t.Errorf("%s = 0 (switches: total=%d toSW=%d toMW=%d toHLRC=%d)",
					label, rep.Stats.PolicySwitches, rep.Stats.SwitchToSW,
					rep.Stats.SwitchToMW, rep.Stats.SwitchToHLRC)
			}
		})
	}
}
