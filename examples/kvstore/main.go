// Kvstore: a DSM-backed key-value store under a zipfian serving load.
// Four nodes share one open-addressed hash table (page-aligned shared
// memory, one lock per 1 KB stripe) and each runs a seeded 90%-read
// zipfian client against it. The same schedules replayed against a plain
// host map give the expected final table, so the run checks itself; the
// per-op latency histogram shows the serving tail each protocol produces.
package main

import (
	"fmt"
	"time"

	"adsm"
	"adsm/internal/kv"
)

func main() {
	wl := kv.Workload{
		Keys:         1024,
		OpsPerWorker: 400,
		ReadPct:      90,
		DeletePct:    2,
		Theta:        0.99,
		Seed:         1,
		Interval:     2 * time.Millisecond, // open loop: latency includes queueing
	}
	const procs = 4
	want := wl.ExpectedChecksum(procs)

	fmt.Printf("zipfian kv serving: %d workers x %d ops, %d keys, theta=%.2f\n\n",
		procs, wl.OpsPerWorker, wl.Keys, wl.Theta)
	fmt.Printf("%-10s %10s %10s %10s %10s %8s\n",
		"protocol", "p50 (us)", "p95 (us)", "p99 (us)", "msgs", "check")
	for _, proto := range []adsm.Protocol{adsm.MW, adsm.SW, adsm.HLRC, adsm.Adaptive} {
		cl := adsm.NewCluster(adsm.Config{Procs: procs, Protocol: proto})
		bench := kv.NewBench(wl)
		bench.Setup(cl)
		report, err := cl.Run(bench.Body)
		if err != nil {
			panic(err)
		}
		sum, _ := bench.Checksum()
		check := "ok"
		if sum != want {
			check = "MISMATCH"
		}
		h := bench.Hist()
		fmt.Printf("%-10v %10d %10d %10d %10d %8s\n",
			proto,
			h.Quantile(0.50)/1000, h.Quantile(0.95)/1000, h.Quantile(0.99)/1000,
			report.Stats.Messages, check)
	}
}
