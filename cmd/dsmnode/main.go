// Command dsmnode is one peer endpoint of a multi-process DSM run over
// the TCP transport: it hosts one node (or several) of the cluster,
// executes the same SPMD application body as everyone else, serves its
// share of pages, diffs, locks and barriers over the wire, and exits when
// the whole cluster is done.
//
// Every participant — the dsmnode peers and the coordinating
// `dsmrun -transport tcp` — must be started with the same application,
// protocol, processor count and address list; the transport blocks until
// the full mesh is connected. Example 3-process run:
//
//	dsmnode -id 1 -addrs 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703 \
//	        -app SOR -quick -protocol HLRC -procs 3 &
//	dsmnode -id 2 -addrs 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703 \
//	        -app SOR -quick -protocol HLRC -procs 3 &
//	dsmrun -transport tcp -tcp-addrs 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703 \
//	        -app SOR -quick -protocol HLRC -procs 3
//
// Every protocol runs, barrier-time garbage collection included: the
// barrier manager, node 0, picks each collected page's keeper from its own
// state and the barrier arrivals, so the number of collections is reported
// by the process hosting node 0.
//
// Recoverable runs (`-recoverable`) execute the built-in checkpointed
// stencil instead of `-app`: every barrier interval is replicated to the
// node's ring buddy, so a peer SIGKILLed between barriers can be
// respawned with `-recover` and the cluster rolls back to the last
// checkpoint and replays. `-kill rank@step` makes this process hard-exit
// (exit 137, the SIGKILL status) when the hosted rank reaches that step —
// the two-terminal demo:
//
//	dsmnode -id 1 -addrs ... -recoverable -procs 3 -kill 1@4 &
//	dsmnode -id 2 -addrs ... -recoverable -procs 3 &
//	dsmnode -id 0 -addrs ... -recoverable -procs 3 &   # prints the checksum
//	# peer 1 exits at step 4; respawn it:
//	dsmnode -id 1 -addrs ... -recoverable -procs 3 -recover
//
// The process hosting rank 0 verifies the final checksum against an
// in-process simulator oracle and fails loudly on a mismatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"adsm"
	"adsm/internal/apps"
	"adsm/internal/harness"
)

func main() {
	id := flag.Int("id", -1, "node id hosted by this process")
	local := flag.String("local", "", "comma-separated node ids to host (overrides -id)")
	addrs := flag.String("addrs", "", "comma-separated per-node listen addresses (required)")
	appName := flag.String("app", "SOR", "application (must match every peer)")
	protoName := flag.String("protocol", "WFS",
		"protocol ("+strings.Join(adsm.ProtocolNames(), ", ")+"; must match every peer)")
	homeName := flag.String("home", "static",
		"home-assignment policy (must match every peer)")
	procs := flag.Int("procs", 8, "number of processors (must match every peer)")
	quick := flag.Bool("quick", false, "use reduced inputs (must match every peer)")
	dialTimeout := flag.Duration("dial-timeout", 20*time.Second, "how long to wait for the peer mesh")
	recoverable := flag.Bool("recoverable", false,
		"run the built-in recoverable stencil with barrier-checkpoint replication instead of -app")
	recoverRun := flag.Bool("recover", false,
		"rejoin a running recoverable cluster after this process was killed (implies -recoverable)")
	killSpec := flag.String("kill", "",
		"rank@step: hard-exit this process (exit 137, the SIGKILL status) when the hosted rank reaches the step")
	lease := flag.Duration("lease", 0,
		"membership lease term: declare a silent peer dead after this long (0: rely on socket errors only; must match every peer)")
	steps := flag.Int("steps", 8, "recoverable stencil steps (must match every peer)")
	ckptEvery := flag.Int("ckpt-every", 2, "checkpoint every k-th barrier (must match every peer)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dsmnode:", err)
		os.Exit(1)
	}

	var hosted []int
	if *local != "" {
		for _, f := range strings.Split(*local, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fail(fmt.Errorf("bad -local: %w", err))
			}
			hosted = append(hosted, v)
		}
	} else if *id >= 0 {
		hosted = []int{*id}
	} else {
		fail(fmt.Errorf("need -id or -local"))
	}
	if *addrs == "" {
		fail(fmt.Errorf("need -addrs (one listen address per node)"))
	}

	proto, err := adsm.ParseProtocol(*protoName)
	if err != nil {
		fail(err)
	}
	home, err := adsm.ParseHomePolicy(*homeName)
	if err != nil {
		fail(err)
	}
	fpName := *appName
	if *recoverable || *recoverRun {
		fpName = "recstencil"
	}

	cfg := adsm.Config{
		Procs:      *procs,
		Protocol:   proto,
		HomePolicy: home,
		Transport:  adsm.TCPTransport,
		TCP: adsm.TCPConfig{
			Addrs:       strings.Split(*addrs, ","),
			Local:       hosted,
			DialTimeout: *dialTimeout,
			Fingerprint: adsm.RunFingerprint(fpName, proto, home, *procs, *quick),
			LeaseTerm:   *lease,
		},
	}

	if *recoverable || *recoverRun {
		runRecoverableStencil(cfg, hosted, *quick, *steps, *ckptEvery, *killSpec, *recoverRun, fail)
		return
	}

	app, err := apps.New(*appName, *quick)
	if err != nil {
		fail(err)
	}
	cl, err := adsm.NewClusterErr(cfg)
	if err != nil {
		fail(err)
	}
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dsmnode: nodes %v done: %s under %v, %d msgs sent, %d bytes, %v wall\n",
		hosted, app.Name(), proto, rep.Stats.Messages, rep.Stats.DataBytes, rep.Elapsed)
	if cl.Hosts(0) {
		fmt.Printf("  checksum             %v\n", app.Result())
	}
}

// runRecoverableStencil executes this endpoint's share of the built-in
// recoverable stencil. The process hosting rank 0 re-runs the same
// program on the in-process simulator afterwards and verifies the
// distributed checksum against that fault-free oracle.
func runRecoverableStencil(cfg adsm.Config, hosted []int, quick bool,
	steps, every int, killSpec string, recovering bool, fail func(error)) {
	const rowsPer = 2
	words := 128
	if quick {
		words = 32
	}
	var sum uint64
	prog := harness.RecoverableStencil(cfg.Procs, rowsPer, words, steps, every, &sum)
	if killSpec != "" {
		var rank, step int
		if _, err := fmt.Sscanf(killSpec, "%d@%d", &rank, &step); err != nil {
			fail(fmt.Errorf("bad -kill %q (want rank@step): %w", killSpec, err))
		}
		inner := prog.Step
		prog.Step = func(w *adsm.Worker, s int) {
			if w.ID() == rank && s == step {
				fmt.Fprintf(os.Stderr, "dsmnode: -kill %s: hard exit at step %d\n", killSpec, s)
				os.Exit(137) // the SIGKILL exit status: no goodbye, no flush
			}
			inner(w, s)
		}
	}
	rep, err := adsm.RunRecoverable(cfg, prog, adsm.FaultPlan{Rejoin: recovering})
	if err != nil {
		fail(err)
	}
	fmt.Printf("dsmnode: nodes %v done: recstencil under %v, %d steps, %d ckpts, %d recoveries, %v wall\n",
		hosted, cfg.Protocol, steps, rep.Stats.Checkpoints, rep.Stats.Recoveries, rep.Elapsed)
	for _, id := range hosted {
		if id != 0 {
			continue
		}
		var want uint64
		oracle := adsm.Config{Procs: cfg.Procs, Protocol: cfg.Protocol, HomePolicy: cfg.HomePolicy}
		if _, err := adsm.RunRecoverable(oracle,
			harness.RecoverableStencil(cfg.Procs, rowsPer, words, steps, every, &want), adsm.FaultPlan{}); err != nil {
			fail(fmt.Errorf("sim oracle: %w", err))
		}
		if sum != want {
			fail(fmt.Errorf("checksum %#x does not match sim oracle %#x", sum, want))
		}
		fmt.Printf("  checksum             %#x (matches sim oracle)\n", sum)
	}
}
