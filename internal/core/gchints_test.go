package core_test

import (
	"fmt"
	"testing"

	"adsm"
	"adsm/internal/apps"
	"adsm/internal/core"
)

// TestGCHintsMatchScan runs the quick application matrix on the simulator
// at 4 and 8 processors under every protocol, with diff pools small enough to collect often. The
// test build checks each collection's hints, which node 0 derives from its
// own state and the barrier arrivals, against a scan of every node's page
// table (gc_test.go); the scan's two-authority panic is a check as well.
func TestGCHintsMatchScan(t *testing.T) {
	before := core.GCHintsChecked()
	var collections int64
	for _, procs := range []int{4, 8} {
		for _, limit := range []int64{16 << 10, 64 << 10} {
			for _, proto := range adsm.Protocols() {
				for _, e := range apps.Registry {
					t.Run(fmt.Sprintf("p%d/%dK/%v/%s", procs, limit>>10, proto, e.Name), func(t *testing.T) {
						cfg := adsm.Config{Procs: procs, Protocol: proto, DiffSpaceLimit: limit}
						_, rep, err := apps.Run(e.New, cfg, true)
						if err != nil {
							t.Fatal(err)
						}
						collections += rep.Stats.GCRuns
					})
				}
			}
		}
	}
	checked := core.GCHintsChecked() - before
	if collections == 0 || checked < collections {
		t.Errorf("%d collections, %d checked against the scan; want some, all checked", collections, checked)
	}
	t.Logf("%d collections checked against the scan", checked)
}
