// Command dsmrun executes one application under one protocol and prints
// the full report — the quickest way to inspect a single cell of the
// evaluation matrix.
//
// Usage:
//
//	dsmrun [-app SOR] [-protocol WFS] [-procs 8] [-quick] [-protocols]
//	       [-transport sim|tcp] [-tcp-addrs a0,a1,...] [-tcp-local 0]
//
// Every protocol (e.g. HLRC, adaptive) is selectable by name or alias;
// -protocols lists them.
//
// With -transport tcp and no -tcp-addrs, the whole cluster runs as an
// in-process loopback mesh (every node a goroutine endpoint, every pair a
// real socket). With -tcp-addrs, this process hosts only the nodes in
// -tcp-local (default node 0) and expects one dsmnode peer per remaining
// node — a genuine multi-process run:
//
//	dsmnode -id 1 -addrs :7701,:7702,:7703 -app SOR -quick -protocol HLRC -procs 3 &
//	dsmnode -id 2 -addrs :7701,:7702,:7703 -app SOR -quick -protocol HLRC -procs 3 &
//	dsmrun -transport tcp -tcp-addrs :7701,:7702,:7703 -app SOR -quick -protocol HLRC -procs 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adsm"
	"adsm/internal/apps"
)

func main() {
	appName := flag.String("app", "SOR", "application (SOR, IS, TSP, Water, 3D-FFT, Shallow, Barnes, ILINK)")
	protoName := flag.String("protocol", "WFS",
		"protocol ("+strings.Join(adsm.ProtocolNames(), ", ")+")")
	homeName := flag.String("home", "static",
		"home-assignment policy ("+strings.Join(adsm.HomePolicyNames(), ", ")+")")
	procs := flag.Int("procs", 8, "number of processors")
	quick := flag.Bool("quick", false, "use reduced inputs")
	list := flag.Bool("protocols", false, "list the protocols and exit")
	listHomes := flag.Bool("homes", false, "list the home policies and exit")
	transportName := flag.String("transport", "sim",
		"transport ("+strings.Join(adsm.TransportNames(), ", ")+")")
	tcpAddrs := flag.String("tcp-addrs", "",
		"comma-separated per-node listen addresses for -transport tcp (empty: in-process mesh)")
	tcpLocal := flag.String("tcp-local", "",
		"comma-separated node ids hosted by this process (default 0 when -tcp-addrs is set)")
	flag.Parse()

	if *list {
		for _, p := range adsm.Protocols() {
			fmt.Printf("%-8s %s\n", p, p.Description())
		}
		return
	}
	if *listHomes {
		for _, h := range adsm.HomePolicies() {
			fmt.Printf("%-18s %s\n", h, h.Description())
		}
		return
	}

	proto, err := adsm.ParseProtocol(*protoName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}
	home, err := adsm.ParseHomePolicy(*homeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}
	app, err := apps.New(*appName, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}
	tr, err := adsm.ParseTransport(*transportName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}

	cfg := adsm.Config{Procs: *procs, Protocol: proto, HomePolicy: home, Transport: tr}
	if tr == adsm.TCPTransport {
		cfg.TCP.Fingerprint = adsm.RunFingerprint(*appName, proto, home, *procs, *quick)
		if *tcpAddrs != "" {
			cfg.TCP.Addrs = strings.Split(*tcpAddrs, ",")
			cfg.TCP.Local = []int{0}
		}
		if *tcpLocal != "" {
			cfg.TCP.Local = nil
			for _, f := range strings.Split(*tcpLocal, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					fmt.Fprintln(os.Stderr, "dsmrun: bad -tcp-local:", err)
					os.Exit(2)
				}
				cfg.TCP.Local = append(cfg.TCP.Local, id)
			}
		}
	}

	cl, err := adsm.NewClusterErr(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}

	s := rep.Stats
	fmt.Printf("%s under %v on %d processors (%s homes, %s, %s transport)\n",
		app.Name(), proto, *procs, home, app.DataSet(), tr)
	if rep.Partial {
		fmt.Printf("  NOTE: multi-process endpoint; statistics cover the locally hosted nodes only\n")
	}
	clock := "virtual"
	if tr != adsm.SimTransport {
		clock = "wall"
	}
	fmt.Printf("  elapsed (%s)%s %v\n", clock, strings.Repeat(" ", 10-len(clock)), rep.Elapsed)
	if cl.Hosts(0) {
		// The checksum is computed by node 0's body; an endpoint hosting
		// only other nodes has nothing meaningful to print.
		fmt.Printf("  checksum             %v\n", app.Result())
	}
	fmt.Printf("  messages             %d (%.2f MB)\n", s.Messages, rep.DataMB())
	if s.WireFrames > 0 {
		fmt.Printf("  wire                 %d frames, %.2f MB real (model %.2f MB), encode %.2f ms\n",
			s.WireFrames, float64(s.WireBytes)/(1<<20), rep.DataMB(),
			float64(s.WireEncodeNS)/1e6)
	}
	if len(s.LaneBytes) > 0 {
		names := []string{"control", "bulk"}
		var parts []string
		for i, b := range s.LaneBytes {
			parts = append(parts, fmt.Sprintf("%s %.2f MB (q %d, hwm %d)",
				names[i], float64(b)/(1<<20), s.LaneQueueDepth[i], s.LaneQueueHWM[i]))
		}
		fmt.Printf("  lanes (per class)    %s\n", strings.Join(parts, ", "))
	}
	fmt.Printf("  faults               %d read, %d write\n", s.ReadFaults, s.WriteFaults)
	fmt.Printf("  page fetches         %d\n", s.PageFetches)
	if s.BatchedFetches > 0 || s.SerialFallbacks > 0 {
		fmt.Printf("  span prefetch        %d batched rounds, %d pages, %d serial fallbacks\n",
			s.BatchedFetches, s.PrefetchPages, s.SerialFallbacks)
	}
	fmt.Printf("  ownership            %d requests, %d grants, %d refusals, %d forwards\n",
		s.OwnershipRequests, s.OwnershipGrants, s.OwnershipRefusals, s.Forwards)
	fmt.Printf("  twins/diffs          %d twins, %d diffs created (%.2f MB), %d applied\n",
		s.TwinsCreated, s.DiffsCreated, rep.MemoryMB(), s.DiffsApplied)
	fmt.Printf("  mode transitions     %d SW->MW, %d MW->SW\n", s.SWtoMW, s.MWtoSW)
	if s.PolicySwitches > 0 {
		fmt.Printf("  adaptive switches    %d (%d to WFS/WFS+WG, %d to MW, %d to HLRC)\n",
			s.PolicySwitches, s.SwitchToSW, s.SwitchToMW, s.SwitchToHLRC)
	}
	if s.DiffsPushed > 0 {
		fmt.Printf("  pushed diffs         %d rode lock grants, %d dropped on arrival, %d applied\n",
			s.DiffsPushed, s.PushesDropped, s.PushesUsed)
	}
	if s.DiffsEvicted > 0 {
		fmt.Printf("  evicted diffs        %d of %d received (%d stored in all)\n",
			s.DiffsEvicted, s.DiffsStored-s.DiffsCreated, s.DiffsStored)
	}
	fmt.Printf("  garbage collections  %d\n", s.GCRuns)
	if s.HomeFlushes > 0 || s.HomeLocalDiffs > 0 || s.HomeBinds > 0 {
		fmt.Printf("  home flushes         %d remote (%.2f MB), %d local diffs, %d binds\n",
			s.HomeFlushes, float64(s.HomeFlushBytes)/(1<<20), s.HomeLocalDiffs, s.HomeBinds)
	}
	fmt.Printf("  synchronization      %d lock acquires, %d barriers\n", s.LockAcquires, s.Barriers)
	fmt.Printf("  sharing (Table 2)    %.1f%% WW falsely shared pages, avg diff %.0f B\n",
		rep.Sharing.FSPercent, rep.Sharing.AvgDiffBytes)
}
