package core_test

import (
	"testing"

	"adsm"
	"adsm/internal/apps"
)

// TestWFSWGTSPOnTCP loops full-input TSP under WFS+WG on the 4-node
// in-process tcp mesh, with every page-state move checked (this is a test
// build of internal/core). The write-granularity probe makes an owner
// that a peer reads drop to MW at once. That last owner wrote the bound
// (355) under a twin, and its grant carried the still-undiffed write to a
// peer, which then found 337 and wrote it as owner. Merging that owner's
// notice, the last owner installed its copy and replayed the twin's 355
// over the 337; its copy claimed the newer interval, so it never
// refetched, pruned against 355 and published 351. About one run in four
// did so. A run takes tens of milliseconds, so the loop reaches the
// schedule within its first few dozen runs.
func TestWFSWGTSPOnTCP(t *testing.T) {
	seq := runTSP(t, adsm.Config{Procs: 1})
	runs := 100
	if testing.Short() {
		runs = 10
	}
	for i := range runs {
		if got := runTSP(t, adsm.Config{Procs: 4, Protocol: adsm.WFSWG, Transport: adsm.TCPTransport}); got != seq {
			t.Fatalf("run %d: best tour %v, sequential %v", i, got, seq)
		}
	}
}

func runTSP(t *testing.T, cfg adsm.Config) float64 {
	t.Helper()
	app, err := apps.New("TSP", false)
	if err != nil {
		t.Fatal(err)
	}
	cl := adsm.NewCluster(cfg)
	app.Setup(cl)
	if _, err := cl.Run(app.Body); err != nil {
		t.Fatal(err)
	}
	return app.Result()
}
