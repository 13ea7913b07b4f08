package core_test

import (
	"testing"

	"adsm"
)

// TestServeHammerTCP serves one page over and over on the 4-node tcp mesh
// while its writer stores into it. Each round's writer (the nodes take
// turns, so ownership is granted on) rewrites the page's first half and,
// after the barrier, scribbles over its second half while the other three
// nodes fetch the page and check the first half. A served
// frame is encoded by the connection's writer goroutine after the handler
// returns, so a store site that skipped its copy would write the frame
// under that read: the race detector sees it, and this test build's frame
// ledger sees the frame change after it was handed out.
func TestServeHammerTCP(t *testing.T) {
	const words, rounds = 512, 60
	for _, proto := range []adsm.Protocol{adsm.SW, adsm.WFS, adsm.HLRC} {
		t.Run(proto.String(), func(t *testing.T) {
			cl := adsm.NewCluster(adsm.Config{Procs: 4, Protocol: proto, Transport: adsm.TCPTransport})
			page := adsm.AllocArrayPageAligned[int64](cl, words)
			rep, err := cl.Run(func(w *adsm.Worker) {
				half := make([]int64, words/2)
				for r := int64(1); r <= rounds; r++ {
					writer := w.ID() == int(r)%w.Procs()
					if writer {
						for i := range half {
							half[i] = r
						}
						page.WriteAt(w, half, 0)
					}
					w.Barrier()
					if writer {
						for i := words / 2; i < words; i++ {
							page.Set(w, i, r*int64(i))
						}
					} else {
						page.ReadAt(w, half, 0)
						for i, v := range half {
							if v != r {
								t.Errorf("round %d: node %d reads word %d = %d", r, w.ID(), i, v)
								break
							}
						}
					}
					w.Barrier()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every reader fetches each round, except an HLRC home.
			if f := rep.Stats.PageFetches; f < 2*rounds {
				t.Fatalf("%d page fetches in %d rounds of 3 readers: the page was not served", f, rounds)
			}
		})
	}
}
