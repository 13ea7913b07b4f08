package adsm_test

import (
	"fmt"
	"testing"

	"adsm"
)

// TestPrefetchEquivalence is the matrix the span-prefetch batching is
// pinned by: batching a span's page fetches into one overlapped
// Multicall must change when coherence traffic travels, never what the
// program computes. For every protocol × {sim, tcp}, the same kernel
// (the mid-page/page-tiled spanKernel of the span equivalence matrix)
// runs with prefetch on and off; checksums must match bit for bit
// everywhere, the off run must never touch the batched path, and under
// the simulator the on run must not be slower — strictly faster, with
// batches actually issued, for the protocols whose read-span pattern the
// barriers fully determine (MW, HLRC). The off arm is core's test-only
// serial engine (Params.SpanPrefetch false).
//
// The apps/ subtests run the quick SOR, Shallow and IS apps — the banded
// stencils whose boundary-row fetches batch, and IS, whose whole-array
// merge/rank spans are the suite's most read-span-heavy phases — under
// every protocol on the simulator: checksums must match bit for bit, at
// least one cell must issue a batch, and under MW and HLRC the on run must
// never take more virtual time. The ownership protocols are exempt from
// the timing bound: batching shifts when ownership requests arrive, which
// can move a later transfer (Shallow under SW loses 5% this way).
func TestPrefetchEquivalence(t *testing.T) {
	const procs = 4
	for _, proto := range adsm.Protocols() {
		for _, tr := range []adsm.Transport{adsm.SimTransport, adsm.TCPTransport} {
			t.Run(fmt.Sprintf("%v/%v", proto, tr), func(t *testing.T) {
				cols := 180
				if tr == adsm.TCPTransport {
					cols = 512
				}
				base := adsm.Config{Procs: procs, Protocol: proto, Transport: tr}

				on := newSpanKernel(procs, cols)
				onRep, onSum := on.run(t, base, nil)

				off := newSpanKernel(procs, cols)
				offRep, offSum := off.run(t, base, serialSpans)

				if onSum != offSum {
					t.Fatalf("checksum diverged: prefetch on %v, off %v", onSum, offSum)
				}
				if onSum == 0 {
					t.Fatal("kernel computed nothing")
				}
				if s := offRep.Stats; s.BatchedFetches != 0 || s.PrefetchPages != 0 || s.SerialFallbacks != 0 {
					t.Errorf("prefetch-off run used the batched path: batches=%d pages=%d fallbacks=%d",
						s.BatchedFetches, s.PrefetchPages, s.SerialFallbacks)
				}
				if tr != adsm.SimTransport {
					return // wall-clock timing is not assertable
				}
				if onRep.Elapsed > offRep.Elapsed {
					t.Errorf("virtual time regressed with prefetch on: on %v, off %v",
						onRep.Elapsed, offRep.Elapsed)
				}
				if proto == adsm.MW || proto == adsm.HLRC {
					if onRep.Stats.BatchedFetches == 0 {
						t.Errorf("no batched fetches issued — the kernel's multi-page spans should batch")
					}
					if onRep.Elapsed >= offRep.Elapsed {
						t.Errorf("expected a strict virtual-time win from batching: on %v, off %v",
							onRep.Elapsed, offRep.Elapsed)
					}
				}
			})
		}
	}
	t.Run("apps", func(t *testing.T) {
		batched := int64(0)
		for _, name := range []string{"SOR", "Shallow", "IS"} {
			for _, proto := range adsm.Protocols() {
				t.Run(name+"/"+proto.String(), func(t *testing.T) {
					onApp, onRep, err := runAppEngine(name, procs, proto, nil)
					if err != nil {
						t.Fatalf("prefetch on: %v", err)
					}
					offApp, offRep, err := runAppEngine(name, procs, proto, serialSpans)
					if err != nil {
						t.Fatalf("prefetch off: %v", err)
					}
					if onApp.Result() != offApp.Result() {
						t.Errorf("checksum diverged: prefetch on %v, off %v", onApp.Result(), offApp.Result())
					}
					if (proto == adsm.MW || proto == adsm.HLRC) && onRep.Elapsed > offRep.Elapsed {
						t.Errorf("batching lost virtual time: on %v, off %v", onRep.Elapsed, offRep.Elapsed)
					}
					batched += onRep.Stats.BatchedFetches
				})
			}
		}
		if batched == 0 {
			t.Error("no cell issued a batched fetch")
		}
	})
}
