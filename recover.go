package adsm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"adsm/internal/core"
)

// Recoverable is a step-structured SPMD program that can survive node
// loss. The contract mirrors the paper's barrier-synchronized
// applications: Setup must be deterministic (every incarnation re-runs it
// and must produce the same allocations), and each step must be
// recomputable from (rank, step, shared memory as of the previous
// barrier) alone — no private state carried across steps — so that
// rolling shared memory back to a checkpointed barrier and replaying the
// steps after it reproduces the original execution bit for bit.
type Recoverable struct {
	// Steps is the number of barrier-delimited steps.
	Steps int
	// CkptEvery checkpoints every k-th barrier (default 1: every step).
	CkptEvery int
	// Setup allocates shared memory. Runs once per incarnation, before
	// the step loop (and before recovery restores a checkpoint).
	Setup func(cl *Cluster)
	// Step executes one barrier-delimited step; the driver supplies the
	// barrier after it.
	Step func(w *Worker, step int)
	// Finish, when non-nil, runs on every worker after the last step's
	// barrier — typically the checksum reduction.
	Finish func(w *Worker)
}

// Kill schedules one in-process fault: right before Node would execute
// Step, every connection touching it is severed — the in-process analogue
// of SIGKILLing that rank between two barriers.
type Kill struct {
	Node int
	Step int
}

// FaultPlan configures fault injection for RunRecoverable. The zero value
// injects nothing: the run behaves (and performs) exactly like a plain
// checkpointing run.
type FaultPlan struct {
	// Kills fire one per incarnation, in order. They need the TCP
	// transport with every rank in this process (TCPConfig.Local empty):
	// an endpoint of a multi-process run is killed from outside.
	Kills []Kill
	// Rejoin marks a respawned replacement endpoint (`dsmnode -recover`):
	// its first mesh joins with the epoch wildcard, adopts the survivors'
	// epoch, and — its stores being empty — has its partitions restored by
	// the ring buddies.
	Rejoin bool
}

// body builds the recoverable step loop for one incarnation. preStep (may
// be nil) runs before each step — the kill hook.
func (prog Recoverable) body(every int, recovering bool, preStep func(w *Worker, step int)) func(w *Worker) {
	return func(w *Worker) {
		start := 0
		if recovering {
			start = w.RecoverSync() + 1
		}
		for s := start; s < prog.Steps; s++ {
			if preStep != nil {
				preStep(w, s)
			}
			prog.Step(w, s)
			if (s+1)%every == 0 {
				w.BarrierCkpt(s)
			} else {
				w.Barrier()
			}
		}
		if prog.Finish != nil {
			prog.Finish(w)
		}
	}
}

// severer is the transport hook the in-process kill uses (the tcp
// runtime's Sever method).
type severer interface{ Sever(node int) }

// epocher reads the tcp runtime's (possibly adopted) membership epoch.
type epocher interface{ Epoch() int64 }

// RunRecoverable executes a Recoverable program with barrier-checkpoint
// replication and automatic recovery. It owns the checkpoint stores of the
// ranks this process hosts (cfg.TCP.Local, or every rank when that is
// empty) across cluster incarnations: when a peer is lost it re-meshes at
// the next membership epoch, restores the newest recoverable checkpoint
// and replays the remaining steps. Under the simulator the plan must be
// empty and the run is a plain checkpointing run (the oracle). In-process
// kills wipe the killed rank's store, as a real SIGKILL would; a
// multi-process endpoint (`dsmnode -recoverable`) is killed from outside
// and its replacement runs with plan.Rejoin.
func RunRecoverable(cfg Config, prog Recoverable, plan FaultPlan) (*Report, error) {
	if prog.Steps <= 0 || prog.Step == nil {
		return nil, fmt.Errorf("adsm: recoverable program needs Steps and Step")
	}
	if (len(plan.Kills) > 0 || plan.Rejoin || len(cfg.TCP.Local) > 0) && cfg.Transport != TCPTransport {
		return nil, fmt.Errorf("adsm: fault injection, rejoining and hosted ranks require the TCP transport (the simulator is the fault-free oracle)")
	}
	if len(plan.Kills) > 0 && len(cfg.TCP.Local) > 0 {
		return nil, fmt.Errorf("adsm: in-process kills need every rank in this process; kill a multi-process endpoint from outside")
	}
	if cfg.Procs == 0 {
		cfg.Procs = 8
	}
	every := prog.CkptEvery
	if every <= 0 {
		every = 1
	}
	for _, k := range plan.Kills {
		if k.Node < 0 || k.Node >= cfg.Procs || k.Step < 0 || k.Step >= prog.Steps {
			return nil, fmt.Errorf("adsm: kill %d@%d outside the run (procs %d, steps %d)",
				k.Node, k.Step, cfg.Procs, prog.Steps)
		}
	}
	// A genuine crash loop fails instead of spinning.
	maxRestarts := len(plan.Kills) + 8

	hosted := cfg.TCP.Local
	if len(hosted) == 0 {
		hosted = make([]int, cfg.Procs)
		for i := range hosted {
			hosted[i] = i
		}
	}
	stores := make(map[int]*core.CkptStore, len(hosted))
	for _, r := range hosted {
		stores[r] = core.NewCkptStore(r)
	}
	recovering := plan.Rejoin
	epoch := int64(0)
	if plan.Rejoin {
		epoch = -1 // adopt the survivors' epoch in the handshake
	}
	killIdx := 0
	for attempt := 0; ; attempt++ {
		run, p := cfg.engine()
		p.Runtime = run.runtimeFactory(epoch)
		p.CkptStores = func(rank int) *core.CkptStore { return stores[rank] }
		// A re-mesh can race a peer's teardown: a dial may land on its
		// dying previous incarnation and be rejected with the stale epoch,
		// failing mesh formation as a whole. That clears once the peer
		// re-meshes, so retry a few times. The very first mesh of a fresh
		// run keeps failing fast — a misconfigured cluster should not retry
		// into a timeout.
		var cl *Cluster
		var err error
		for try := 0; ; try++ {
			cl, err = newClusterErr(run, p)
			if err == nil {
				break
			}
			if !recovering || try >= 4 {
				return nil, err
			}
			time.Sleep(500 * time.Millisecond)
		}
		if e, ok := cl.c.Transport().(epocher); ok {
			epoch = e.Epoch() // resolve the wildcard for the next incarnation
		}
		if prog.Setup != nil {
			prog.Setup(cl)
		}
		// Arm the next scheduled kill: the victim severs its own
		// connections right before the step, then runs on into the
		// poisoned runtime — exactly what its peers would observe of a
		// SIGKILL between two barriers.
		var fired atomic.Bool
		var preStep func(w *Worker, step int)
		if killIdx < len(plan.Kills) {
			kill := plan.Kills[killIdx]
			preStep = func(w *Worker, step int) {
				if w.ID() == kill.Node && step == kill.Step && fired.CompareAndSwap(false, true) {
					if s, ok := cl.c.Transport().(severer); ok {
						s.Sever(kill.Node)
					}
				}
			}
		}
		rep, err := cl.Run(prog.body(every, recovering, preStep))
		if err == nil {
			return rep, nil
		}
		if !errors.Is(err, ErrPeerLost) && !errors.Is(err, ErrLeaseExpired) {
			return nil, err
		}
		if attempt+1 > maxRestarts {
			return nil, fmt.Errorf("adsm: gave up after %d restarts: %w", attempt+1, err)
		}
		if fired.Load() {
			// The scheduled kill fired: the rank is "dead", its store —
			// its process image — dies with it. Recovery must rebuild its
			// partition from the ring buddy's replica.
			stores[plan.Kills[killIdx].Node] = core.NewCkptStore(plan.Kills[killIdx].Node)
			killIdx++
		}
		epoch++
		recovering = true
	}
}
