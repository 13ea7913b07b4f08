// Command dsmbench reproduces the paper's evaluation: each table and
// figure of Amza et al. (HPCA 1997) can be regenerated individually or as
// a whole, and `-exp json` emits the machine-readable benchmark report
// (per app x protocol: virtual time, messages, data volume) used to track
// the perf trajectory across PRs (BENCH_*.json).
//
// Usage:
//
//	dsmbench [-exp all|table1|table2|table3|table4|fig2|fig3|ablation|homes|adapt|serve|faults|json]
//	         [-quick] [-procs N] [-protocols MW,HLRC] [-home static]
//	         [-out FILE] [-fig3csv] [-tcp=false]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"adsm"
	"adsm/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, table3, table4, fig2, fig3, ablation, homes, adapt, serve, faults, json")
	quick := flag.Bool("quick", false, "use reduced inputs (fast, for smoke testing)")
	procs := flag.Int("procs", 8, "number of processors (the paper used 8)")
	protocols := flag.String("protocols", "",
		"comma-separated protocol subset for the cross-protocol experiments (default: all of "+
			strings.Join(adsm.ProtocolNames(), ",")+")")
	homeName := flag.String("home", "static",
		"home-assignment policy for every cell ("+strings.Join(adsm.HomePolicyNames(), ", ")+
			"); the homes/json experiments additionally sweep all of them")
	out := flag.String("out", "", "write the output to FILE instead of stdout (json experiment)")
	fig3csv := flag.Bool("fig3csv", false, "emit the Figure 3 timelines as CSV instead of the summary")
	tcp := flag.Bool("tcp", true,
		"run the serve/faults experiments' cells on the real TCP mesh as well as the simulator (false: sim only)")
	flag.Parse()

	m := harness.NewMatrix(*quick)
	m.Procs = *procs
	if *protocols != "" {
		for _, name := range strings.Split(*protocols, ",") {
			p, err := adsm.ParseProtocol(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dsmbench:", err)
				os.Exit(2)
			}
			m.Protos = append(m.Protos, p)
		}
	}
	home, err := adsm.ParseHomePolicy(*homeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(2)
	}
	m.Home = home

	run := func(f func() string) {
		fmt.Println(f())
		fmt.Println()
	}

	switch *exp {
	case "all":
		run(m.Table1)
		run(m.Table2)
		run(m.Figure2)
		run(m.Table3)
		run(m.Table4)
		run(m.Figure3)
		run(m.Ablations)
	case "table1":
		run(m.Table1)
	case "table2":
		run(m.Table2)
	case "table3":
		run(m.Table3)
	case "table4":
		run(m.Table4)
	case "fig2":
		run(m.Figure2)
	case "fig3":
		if *fig3csv {
			fmt.Print(m.Figure3CSV())
		} else {
			run(m.Figure3)
		}
	case "ablation":
		run(m.Ablations)
	case "homes":
		run(m.HomeSweep)
	case "adapt":
		run(m.AdaptSweep)
	case "serve":
		run(func() string { return m.ServeSweep(*tcp, harness.ServeOptions{}) })
	case "faults":
		run(func() string { return m.FaultSweep(*tcp) })
	case "json":
		data, err := m.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "dsmbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
