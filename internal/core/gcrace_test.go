package core_test

import (
	"math"
	"testing"

	"adsm"
	"adsm/internal/apps"
)

// TestGCCollapseRaceTCP runs quick-input Shallow on the 4-node tcp mesh
// with a diff pool small enough to collect at most barriers, under the
// adaptive ownership protocols, with every page-state move checked. Once
// a collection's mini-barrier is released, a peer may ask a page's keeper
// for ownership, and the barrier manager may ingest a peer's next arrival,
// before the node has run its drop phase. A keeper that applied the
// collection's verdict only there granted under its old state and then
// made itself owner again: two ownership authorities ("owner routes
// elsewhere"), in most WFS+WG runs. A manager that dropped its
// write-notice history only there lost the early peer's intervals, and a
// run in about a hundred computed a wrong checksum.
func TestGCCollapseRaceTCP(t *testing.T) {
	want := runShallow(t, adsm.Config{Procs: 1})
	runs := 10
	if testing.Short() {
		runs = 3
	}
	for _, proto := range []adsm.Protocol{adsm.WFSWG, adsm.WFS} {
		for i := range runs {
			cfg := adsm.Config{Procs: 4, Protocol: proto, Transport: adsm.TCPTransport, DiffSpaceLimit: 64 << 10}
			if got := runShallow(t, cfg); math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("%v run %d: checksum %v, sequential %v", proto, i, got, want)
			}
		}
	}
}

func runShallow(t *testing.T, cfg adsm.Config) float64 {
	t.Helper()
	app, rep, err := apps.Run(func(q bool) apps.App { return apps.NewShallow(q) }, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DiffSpaceLimit > 0 && rep.Stats.GCRuns == 0 {
		t.Fatalf("%v: no collection ran", cfg.Protocol)
	}
	return app.Result()
}
