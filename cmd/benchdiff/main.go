// Command benchdiff compares two BENCH_*.json files produced by
// `dsmbench -exp json` and flags regressions: cells whose virtual time,
// message count, or data volume grew by more than the threshold. It is
// the perf-trajectory guard: archive a BENCH_N.json per change, then
//
//	benchdiff [-threshold 5] [-all] OLD.json NEW.json
//
// prints the per-cell deltas (only cells exceeding the threshold unless
// -all is given) and exits 1 if any metric regressed, 0 otherwise. Cells
// present in only one file are reported but never fail the run (the
// matrix legitimately grows as protocols and home policies are added).
// Setting ALLOW_PERF_REGRESSION in the environment downgrades a failing
// comparison to a warning (exit 0) — the escape hatch for deliberate,
// explained regressions now that CI blocks on this check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"adsm/internal/harness"
)

type metric struct {
	name     string
	old, new int64
}

func pct(old, new int64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return 100 * float64(new-old) / float64(old)
}

// serveKey names a serving cell; the variant distinguishes the base mix
// from the write-heavy arm.
func serveKey(c harness.BenchServeCell) string {
	variant := c.Variant
	if variant == "" {
		variant = "base"
	}
	return "serve/" + c.Protocol + "/" + variant
}

func load(path string) (harness.BenchReport, error) {
	var r harness.BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	threshold := flag.Float64("threshold", 5, "regression threshold in percent")
	all := flag.Bool("all", false, "print every cell, not only the ones over the threshold")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold N] [-all] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if oldRep.Quick != newRep.Quick || oldRep.Procs != newRep.Procs || oldRep.Home != newRep.Home {
		fmt.Fprintf(os.Stderr, "benchdiff: configurations differ (quick %v/%v, procs %d/%d, home %q/%q); deltas may be meaningless\n",
			oldRep.Quick, newRep.Quick, oldRep.Procs, newRep.Procs, oldRep.Home, newRep.Home)
	}

	type cell struct {
		key     string
		metrics []metric
	}
	oldCells := map[string][]metric{}
	for _, c := range oldRep.Cells {
		oldCells[c.App+"/"+c.Protocol] = []metric{
			{"virtual_us", c.VirtualUS, 0}, {"messages", c.Messages, 0}, {"data_bytes", c.DataBytes, 0}}
	}
	for _, c := range oldRep.HomeCells {
		oldCells[c.App+"/"+c.Protocol+"/"+c.Home] = []metric{
			{"virtual_us", c.VirtualUS, 0}, {"messages", c.Messages, 0}, {"data_bytes", c.DataBytes, 0}}
	}
	for _, c := range oldRep.ServeCells {
		oldCells[serveKey(c)] = []metric{
			{"virtual_us", c.VirtualUS, 0}, {"messages", c.Messages, 0}, {"data_bytes", c.DataBytes, 0}}
	}
	var cells []cell
	seen := map[string]bool{}
	addNew := func(key string, vus, msgs, bytes int64) {
		seen[key] = true
		olds, ok := oldCells[key]
		if !ok {
			fmt.Printf("NEW   %-28s (no baseline)\n", key)
			return
		}
		cells = append(cells, cell{key: key, metrics: []metric{
			{"virtual_us", olds[0].old, vus},
			{"messages", olds[1].old, msgs},
			{"data_bytes", olds[2].old, bytes}}})
	}
	for _, c := range newRep.Cells {
		addNew(c.App+"/"+c.Protocol, c.VirtualUS, c.Messages, c.DataBytes)
	}
	for _, c := range newRep.HomeCells {
		addNew(c.App+"/"+c.Protocol+"/"+c.Home, c.VirtualUS, c.Messages, c.DataBytes)
	}
	for _, c := range newRep.ServeCells {
		addNew(serveKey(c), c.VirtualUS, c.Messages, c.DataBytes)
	}
	var dropped []string
	for key := range oldCells {
		if !seen[key] {
			dropped = append(dropped, key)
		}
	}
	sort.Strings(dropped)
	for _, key := range dropped {
		fmt.Printf("GONE  %-28s (present only in baseline)\n", key)
	}

	regressions := 0
	for _, c := range cells {
		worst := 0.0
		for _, m := range c.metrics {
			if d := pct(m.old, m.new); d > worst {
				worst = d
			}
		}
		if worst <= *threshold && !*all {
			continue
		}
		tag := "ok   "
		if worst > *threshold {
			tag = "REGR "
			regressions++
		}
		fmt.Printf("%s %-28s", tag, c.key)
		for _, m := range c.metrics {
			fmt.Printf("  %s %+.1f%%", m.name, pct(m.old, m.new))
		}
		fmt.Println()
	}
	if regressions > 0 {
		fmt.Printf("\n%d cell(s) regressed more than %.1f%%\n", regressions, *threshold)
		if v := strings.ToLower(os.Getenv("ALLOW_PERF_REGRESSION")); v != "" && v != "0" && v != "false" {
			fmt.Println("ALLOW_PERF_REGRESSION is set: reporting the regression but exiting 0")
			return
		}
		os.Exit(1)
	}
	fmt.Printf("no regressions over %.1f%% across %d compared cell(s)\n", *threshold, len(cells))
}
