package core

import (
	"fmt"

	"adsm/internal/transport"
	"adsm/internal/vc"
)

// Barriers: centralized at node 0 (the manager). Arrivals carry each
// node's new intervals; releases carry the intervals each waiter lacks.
// Garbage collection is coordinated by piggybacking a memory-pressure flag
// on arrivals and the GC decision (plus post-GC page routing hints) on
// releases, exactly one barrier round late as in TreadMarks, and so are the
// adaptive protocol's page switches. The manager decides both from the
// arrivals and its own node's state alone, so one code path serves the
// simulator, the in-process mesh and a multi-process one.

// barrierMgr is the manager-side state (one barrier at a time).
type barrierMgr struct {
	epoch    int64
	arrived  int
	calls    []transport.Call
	knows    [][]int32
	pressure bool
	gcRound  bool // current round is the GC mini-barrier (no nested GC)
	// writers[pg] has bit p set when an arrival carried an interval of
	// processor p that wrote page pg since the page was last collected.
	writers []uint64
}

// Barrier synchronizes all nodes, propagating all write notices.
func (n *Node) Barrier() {
	n.closeInterval()
	n.Stats.Barriers++
	if n.c.params.Procs == 1 {
		// A lone node is its own barrier manager and nobody can ask it for
		// a diff: it collects as soon as its pool is over the limit, with
		// no messages, instead of keeping every diff it ever made.
		if n.c.policy.MemPressure(n) {
			writers := make([]uint64, len(n.wroteSinceGC))
			for pg, w := range n.wroteSinceGC {
				if w {
					writers[pg] = 1 << uint(n.id)
				}
			}
			n.c.gcRuns++
			n.runGC(n.gcHints(writers))
		}
		return
	}
	n.barrierRound(false)
}

// barrierRound performs one arrive/release exchange. The GC mini-barrier
// reuses the same machinery with gcRound set. The epoch in the arrival is
// the node's OWN barrier count (not the manager's record, which lives in
// another process under a multi-process transport); the two agree by
// construction and the manager enforces it.
func (n *Node) barrierRound(gcRound bool) {
	mine := n.intervalsSince(n.lastGlobal)
	resp := n.c.rt.Call(n.proc, 0, barArrive{
		Epoch:       n.barEpoch,
		KnownTS:     append([]int32(nil), n.knownTS...),
		Intervals:   mine,
		MemPressure: !gcRound && n.c.policy.MemPressure(n),
		Facts:       n.takeFacts(),
		nprocs:      n.c.params.Procs,
	}).(barRelease)
	n.barEpoch++
	n.ingestIntervals(resp.Intervals)
	n.vclock.Join(resp.Global)
	copy(n.lastGlobal, resp.Global)
	// The adaptive meta-protocol's switch decisions apply here — after the
	// release's knowledge is merged, before the per-protocol release hooks —
	// so every node flips a page at the same epoch.
	quiesce := len(resp.Switches) > 0 && n.applyPolicySwitches(resp.Switches)
	// Mechanism 3 of Section 3.1.2 lives in the adaptive policies.
	n.dispatchBarrierRelease()
	if resp.GC {
		n.runGC(resp.Hints)
	}
	if quiesce {
		// A page moved to HLRC: its home drained the MW history above,
		// but a peer that resumed now could flush its next interval's
		// diff to a home that has not yet received this release. The
		// flush's vector clock would then cover the pre-switch notices
		// the home is still to drain, and they would be dropped as
		// applied. One more round keeps every body parked until every
		// home has drained.
		n.barrierRound(true)
	}
}

// dispatchBarrierRelease invokes the release-time hook of every policy that
// currently governs at least one page, once each, telling it which protocol
// it is being called for so its scans stay within its own pages.
func (n *Node) dispatchBarrierRelease() {
	used := n.c.usedPages()
	var seen []Protocol
	for pg := 0; pg < used; pg++ {
		ps := n.pages[pg]
		dup := false
		for _, p := range seen {
			if p == ps.proto {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, ps.proto)
		ps.policy.OnBarrierRelease(n, ps.proto)
	}
}

// dominatingWN returns the vector clock of the write notice whose
// interval dominates all the others of wns, or nil if none does.
func (n *Node) dominatingWN(wns []wnRef) vc.VC {
	var best wnRef
	for _, r := range wns {
		if !best.ok() || n.ivc(best).Leq(n.ivc(r)) {
			best = r
		}
	}
	if !best.ok() {
		return nil
	}
	for _, r := range wns {
		if r != best && !n.ivc(r).Leq(n.ivc(best)) {
			return nil
		}
	}
	return n.ivc(best)
}

// serveBarrier runs at the manager (handler context).
func (n *Node) serveBarrier(c transport.Call, from int, m barArrive) {
	b := &n.c.bar
	if m.Epoch != b.epoch {
		panic(fmt.Sprintf("dsm: barrier epoch mismatch: arrival %d at epoch %d", m.Epoch, b.epoch))
	}
	// The manager accumulates everyone's intervals (it is also a worker;
	// handler-time ingest is the SIGIO model).
	n.ingestIntervals(m.Intervals)
	if ad := n.c.adapt; ad != nil && !ad.frozen {
		// The meta-protocol's decision state feeds on the same piggybacked
		// intervals (with its own per-processor watermark, since arrivals
		// relay redundantly) and on the arriver's page facts.
		ad.noteArrival(from, m, n.c.params.Cost.SerialWFS)
	}
	// Every node's intervals since the last release reach the manager in
	// its own arrival (node 0's too), so the writer masks miss no write.
	w := 0
	for _, h := range m.Intervals.Heads {
		for _, wn := range m.Intervals.WNs[w : w+int(h.nwn)] {
			b.writers[wn.page] |= 1 << uint(h.proc)
		}
		w += int(h.nwn)
	}
	b.arrived++
	b.calls = append(b.calls, c)
	b.knows = append(b.knows, m.KnownTS)
	if m.MemPressure {
		b.pressure = true
	}
	if b.arrived < n.c.params.Procs {
		return
	}

	// Everyone is here: the manager now knows every interval.
	doGC := b.pressure && !b.gcRound
	var hints []gcHint
	if doGC {
		hints = n.gcHints(b.writers)
		n.c.gcRuns++
	}
	// Adaptive switch decisions never ride a GC-triggering release: the
	// hints were computed under the current protocol assignment and the
	// collection must reorganize copies under it. The post-GC mini-barrier
	// is fine — collection has finished and pages are in their leanest
	// state — which matters for programs whose diff pressure makes most
	// releases GC-triggering.
	var switches []policySwitch
	if ad := n.c.adapt; ad != nil && !ad.frozen && !doGC {
		switches = n.c.adaptDecide()
	}
	global := append([]int32(nil), n.knownTS...)
	calls, knows := b.calls, b.knows
	b.arrived, b.calls, b.knows, b.pressure = 0, nil, nil, false
	b.epoch++
	b.gcRound = doGC
	for i, cc := range calls {
		cc.Reply(barRelease{
			Intervals: n.intervalsSince(knows[i]),
			Global:    global,
			GC:        doGC,
			Hints:     hints,
			Switches:  switches,
			nprocs:    n.c.params.Procs,
		})
	}
}
