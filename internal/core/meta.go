package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"adsm/internal/mem"
	"adsm/internal/vc"
)

// The adaptive meta-protocol: a Policy like any other protocol's that
// never serves a page itself. Every page it initializes is immediately
// delegated to a concrete protocol — MW by default — and thereafter the
// barrier manager watches each page's write notices and the page facts
// the nodes report on their barrier arrivals (first accesses, the diffs
// they made or applied), and migrates individual pages between MW, WFS,
// WFS+WG and HLRC. It learns nothing any other way, so the same rules run on the
// simulator, the in-process mesh and a multi-process one.
// Switch decisions ride the barrier release (the Switches field of
// barRelease), so every node flips a page's protocol at the same barrier
// epoch and no page ever has two protocols live at once. A release that
// moves a page to HLRC is followed by one quiescent barrier round (see
// barrierRound): no body resumes, and so no writer flushes to a new home,
// before every home has drained the page's MW history.
//
// The decision rules are deliberately conservative (streaks of epochs, a
// per-page switch budget): a wrong switch costs a drain and a re-switch,
// while a missed switch only costs the static protocol's overhead.
//
// Pages start under MW (the protocol that is never catastrophically
// wrong) and migrate when a clear pattern emerges:
//
//   - Solo-writer pages promote to the ownership-based protocol (WFS+WG:
//     everything WFS does, plus the write-granularity gate that keeps
//     fine-grained pages in MW mode): the stable writer becomes owner and
//     writes without twins or diffs.
//     Pages the writer rewrites in bulk (largest diff >= adaptBulkThreshold)
//     promote after adaptSoloEpochs same-writer epochs — every MW epoch
//     costs them page-sized twin and diff copies, so waiting is expensive.
//     Fine-grain solo pages wait for the longer adaptSoloSlow streak,
//     which a mostly-solo page with periodic multi-writer bursts (Water's
//     update pattern) never completes. Pages that ever had a multi-writer
//     epoch, or that pure readers fetch (more than adaptMaxReaders of
//     them), stay in MW, whose lazy diffs serve sharers most cheaply.
//   - An ownership page that shows concurrent writers for
//     adaptMultiEpochs epochs goes back to MW: refusal churn.
//   - Where the profile asks for it (CostProfile.SerialWFS), an MW page
//     whose writers this epoch all lie on one happens-before chain — they
//     take turns, ordered by a lock — and whose diffs are bulky
//     (largest diff >= adaptBulkThreshold) moves to plain WFS, owned by the
//     writer of the chain's last interval. Each writer then takes the
//     page by one ownership request and rewrites it without a twin or a
//     diff. The rule is checked before the →HLRC rule, which counts
//     writers without asking whether they were concurrent. A page under
//     WFS goes back to MW (or HLRC) only on an epoch whose writers are
//     concurrent. Plain WFS, not WFS+WG: the granularity probe would
//     flip every read-shared migratory page to MW and back each epoch.
//     The rule moves IS's bucket pages off HLRC on the 4-node tcp mesh
//     (`dsmbench -exp adapt -procs 4`, full inputs, 2-vCPU host, four
//     matrices each): adaptive IS fell from 62–64 ms to 36–45 ms,
//     against 26–30 ms for static WFS, 53–57 for HLRC and 64–74 for
//     WFS+WG. What is left of the gap is the first lock epoch, which
//     runs under MW before the barrier manager has seen the writers. On
//     the paper's 1997 machine HLRC wins IS (3.05 s virtual against
//     WFS's 3.34 s at 4 processors), so PaperProfile leaves the rule
//     off.
//   - adaptHLRCEpochs consecutive epochs with at least
//     CostProfile.HLRCWriters writers send the page to HLRC: a reader of
//     such a page collects that many diffs per fault under MW, where one
//     home round trip would do, and the eager home flush keeps the diff
//     pool (and GC) out of the picture. Where bytes are dear the page
//     must also show bulky diffs (CostProfile.HLRCMinDiff).
//
// Each page may switch at most adaptMaxSwitches times, so a workload that
// oscillates settles instead of thrashing.
//
// The streak lengths and the switch budget are decision hygiene and are
// constants. The →HLRC thresholds weigh messages against bytes, so they
// live in the cluster's CostProfile (Params.Cost), chosen by the
// transport: PaperProfile for the simulator, WireProfile for TCP.
const (
	adaptMultiEpochs   = 1
	adaptSoloEpochs    = 2
	adaptSoloSlow      = 4
	adaptHLRCEpochs    = 1
	adaptMaxReaders    = 1
	adaptMaxSwitches   = 4
	adaptBulkThreshold = mem.PageSize / 8
)

// CostProfile holds the protocol thresholds whose right value depends on
// what a message costs next to a byte on the machine the cluster runs on:
// the adaptive meta-protocol's serialized-writer and →HLRC rules and the
// lock-grant diff push.
type CostProfile struct {
	// SerialWFS turns on the serialized-writer rule: a bulky MW page whose
	// writers take turns within a barrier epoch moves to WFS instead of
	// waiting for the →HLRC rule.
	SerialWFS bool
	// HLRCWriters is how many nodes must write a page in one barrier
	// epoch (adaptHLRCEpochs epochs running) for it to move to HLRC.
	HLRCWriters int
	// HLRCMinDiff is the mean diff size, in bytes, the page's writers must
	// also show; 0 drops the size gate.
	HLRCMinDiff int
	// PushBudget is how many bytes of diffs one lock grant may carry for
	// the write notices it ships (push.go): a push saves the acquirer a
	// diff round trip if it uses the diff, and costs bytes and a cache
	// entry if it does not. 0 keeps the paper's lazy invalidate (no
	// pushes).
	PushBudget int
}

// PaperProfile is the 1997 machine the simulator models: a 490 µs
// one-way message and 220 ns per byte, so a 4 KB page costs 0.9 ms on
// top of a message. Bytes are dear: an HLRC reader's whole-page home
// fetch only beats collecting k diffs when the diffs themselves add up to
// about a page, hence four writers with diffs of at least a quarter page
// (IS's bucket array qualifies, Barnes's fine-grain bodies do not).
// It pushes no diffs on lock grants: the simulator keeps the paper's
// lazy-invalidate MW, whose virtual times every archived cell pins. The
// serialized-writer rule is off: there IS's lock-serialized bucket pages
// belong to HLRC (3.05 s virtual, full inputs, 4 processors, against
// WFS's 3.34 s): an ownership transfer moves a whole page per writer,
// and bytes are what this machine charges for.
func PaperProfile() CostProfile {
	return CostProfile{HLRCWriters: 4, HLRCMinDiff: mem.PageSize / 4}
}

// WireProfile is the TCP mesh. Its ladder (BENCH_31.wall.json, 2-vCPU
// host) prices an empty round trip at 34–51 µs and a 4 KB page round trip
// at 27 µs, and a full-page diff at 3.2 µs to make: a page costs no more
// than the message carrying it, so the size gate protects nothing and is
// dropped. What HLRC saves is messages: a reader of a k-writer page sends
// k diff requests under MW and one home fetch under HLRC. The wall matrix
// (`dsmbench -exp adapt -procs 4`, full inputs, median of three
// median-of-3 matrices) has static HLRC ahead of MW on all four
// many-writer kernels — ILINK 93 vs 212 ms, Barnes 102 vs 120, Water 44
// vs 54, TSP 28 vs 32 — and the adaptive walls with a writer threshold of
// 2, 3 or 4 lie within one another's run-to-run spread on every kernel
// (two matrices each). Three is the middle
// choice: it takes every page ILINK and Barnes write from all four nodes
// and Water's three-writer pages, but not the two-writer pages a
// threshold of 2 adds in Water (172 switches against 132) for no
// measurable gain.
//
// The push budget bounds what a grant carries for acquirers that will
// not use it. The ladder cannot place it where a round trip and its bytes
// cost the same: over nine passes on the 2-vCPU host tcp.call_rtt_us read
// 14–32 µs (median 23.8) and tcp.call_page_us 18–41 µs (median 28.1), and
// a page's extra cost over an empty round trip ranged from −14 to +20 µs
// within a pass, so a byte's cost is lost in the noise. What places it is
// use. On the 4-node mesh (adaptive, full inputs, three runs each) budgets
// of 6 KB, 24 KB and none left the pushes that faults applied level
// (Water 356, 358, 355) while the pushes dropped on arrival grew (Water
// 43, 154, 165; IS 8, 63, 288 — all it pushed past 6 KB, bucket-array
// diffs its acquirers hold no copy of) and the largest grant grew from
// 6 KB to 165 KB. 6 KB cuts about 30 grants per 5 s benchmark run of
// apps_mw and of apps_sw and up to 69 of serve_write, and five interleaved
// rounds of the three budgets moved no workload's throughput beyond its
// run-to-run spread.
//
// The serialized-writer rule is on. Writers that take turns under a lock
// need no twins or diffs: a page costs no more than the message carrying
// it, so one ownership request per writer beats a twin, a diff and a
// home flush per writer. IS's bucket pages, written by all four nodes in
// turn, run under WFS with the rule and under HLRC without it; static
// WFS runs IS in 26–30 ms against HLRC's 53–57 (wall matrix, four runs),
// and adaptive IS fell from 62–64 ms to 36–45 ms.
func WireProfile() CostProfile {
	return CostProfile{SerialWFS: true, HLRCWriters: 3, PushBudget: 6 << 10}
}

// metaPolicy is pointer-typed: unlike the stateless static policies it
// carries per-cluster resolution state (the initial delegation target),
// and newPolicy builds a fresh instance per cluster.
type metaPolicy struct {
	basePolicy
	resolved bool
	target   Protocol // initial per-page protocol: the frozen pin, or MW
}

// InitPage delegates the page to the initial target protocol: the page's
// proto/policy binding is re-pointed before the target's own InitPage
// runs, so from the engine's point of view the page was never adaptive.
func (p *metaPolicy) InitPage(n *Node, pg int, ps *pageState) {
	if !p.resolved {
		p.resolve(n.c)
	}
	ps.proto = p.target
	ps.policy = policies[p.target]
	ps.policy.InitPage(n, pg, ps)
}

// WriteFault can never run: every page is re-pointed at a concrete
// protocol before the first application access.
func (p *metaPolicy) WriteFault(n *Node, pg int, ps *pageState) {
	panic("dsm: adaptive meta-policy received a write fault (page was never delegated)")
}

// resolve fixes the initial delegation target and seeds the cluster's
// adaptation state. Runs once, from Run's InitPage loop (single-threaded,
// before any node body spawns).
func (p *metaPolicy) resolve(c *Cluster) {
	ad := &adaptState{}
	p.target = MW
	if f := c.params.AdaptiveFreeze; f != "" {
		id, err := ParseProtocol(f)
		if err != nil {
			panic(fmt.Sprintf("dsm: AdaptiveFreeze: %v", err))
		}
		if id == Adaptive {
			panic("dsm: AdaptiveFreeze must name a static protocol, not the adaptive one")
		}
		ad.frozen = true
		p.target = id
	}
	ad.scanTS = make([]int32, c.params.Procs)
	ad.pages = make([]adaptPage, c.usedPages())
	for i := range ad.pages {
		ad.pages[i].proto = p.target
		ad.pages[i].soloWriter = -1
	}
	c.adapt = ad
	p.resolved = true
}

// adaptState is the barrier manager's per-cluster decision state. It lives
// on the Cluster (every instance of a multi-process deployment builds one,
// but only the instance hosting node 0 ever decides) and it is only
// touched in node 0's barrier-handler context, from the arrivals.
type adaptState struct {
	frozen bool // AdaptiveFreeze set: never switch

	// scanTS[p] is the highest interval TS of processor p folded into the
	// decision state — the manager sees intervals redundantly (every
	// arrival relays what the arriver knows), so a watermark dedups them.
	scanTS []int32
	pages  []adaptPage
	// chain holds the epoch's intervals the serialized-writer rule orders,
	// copied from the arrivals: each one's writer and, stride procs apart,
	// its vector clock. adaptDecide empties it.
	chainProcs []int32
	chainVCs   []int32
}

// adaptPage is the manager's view of one page's recent write behavior.
type adaptPage struct {
	proto      Protocol // the protocol the manager has the page under
	writers    uint64   // writer bitmask accumulated this barrier epoch
	solo       int      // consecutive written epochs with the same single writer
	soloWriter int      // that writer (-1 before the first written epoch)
	multi      int      // consecutive written epochs with >= 2 writers
	hlrcRun    int      // consecutive epochs with >= Cost.HLRCWriters writers
	everMulti  bool     // the page has EVER had a multi-writer epoch
	maxVer     int32    // highest owner-notice version seen (or assigned)
	switches   int      // switches issued for this page (budget)
	// ivs are this epoch's intervals that wrote the page, kept only while
	// the serialized-writer rule is on: indexes into adaptState's chain.
	ivs []int32

	// What the whole run has shown so far: the nodes that accessed the
	// page and that wrote it, and the diffs of it the nodes made or
	// applied.
	accessors, wrote uint64
	diffs            diffTally
}

// noteArrival folds one barrier arrival — node from's piggybacked
// intervals and page facts — into the decision state; serial keeps the
// intervals the serialized-writer rule orders. Manager handler context.
func (ad *adaptState) noteArrival(from int, m barArrive, serial bool) {
	b := &m.Intervals
	stride, w := b.stride(), 0
	for i, h := range b.Heads {
		wns := b.WNs[w : w+int(h.nwn)]
		w += int(h.nwn)
		if h.ts <= ad.scanTS[h.proc] {
			continue
		}
		ad.scanTS[h.proc] = h.ts
		iv := int32(len(ad.chainProcs))
		if serial && len(wns) > 0 {
			ad.chainProcs = append(ad.chainProcs, h.proc)
			ad.chainVCs = append(ad.chainVCs, b.VCs[i*stride:(i+1)*stride]...)
		}
		for _, wn := range wns {
			ap := &ad.pages[wn.page]
			ap.writers |= 1 << uint(h.proc)
			ap.wrote |= 1 << uint(h.proc)
			if serial {
				ap.ivs = append(ap.ivs, iv)
			}
			if wn.owner() && wn.version() > ap.maxVer {
				ap.maxVer = wn.version()
			}
		}
	}
	for _, f := range m.Facts {
		ap := &ad.pages[f.Page]
		if f.First {
			ap.accessors |= 1 << uint(from)
		}
		ap.diffs.merge(f.Diffs)
	}
}

// adaptDecide turns one barrier epoch's observations into per-page switch
// decisions. Runs on the manager when all nodes have arrived, on non-GC
// rounds only (a GC round reorganizes page copies under the CURRENT
// protocols; mixing the two transitions in one release is not worth the
// complexity). Handler context on node 0. It reads only the decision
// state the arrivals built: a diff made after its maker arrived counts at
// the next decision, unless a node that arrived later applied it.
func (c *Cluster) adaptDecide() []policySwitch {
	ad := c.adapt
	var out []policySwitch
	for pg := range ad.pages {
		ap := &ad.pages[pg]
		writers := ap.writers
		ap.writers = 0
		nw := bits.OnesCount64(writers)
		// last is the writer of the chain's last interval when this
		// epoch's writers took turns, -1 when two of them wrote
		// concurrently (or the rule is off, or fewer than two nodes
		// wrote).
		last := -1
		if nw >= 2 {
			last = ad.chainLast(ap.ivs, c.params.Procs)
		}
		ap.ivs = ap.ivs[:0]
		if nw == 0 {
			continue // idle epoch: streaks hold
		}
		if nw == 1 {
			w := bits.TrailingZeros64(writers)
			if w == ap.soloWriter {
				ap.solo++
			} else {
				ap.solo, ap.soloWriter = 1, w
			}
			ap.multi, ap.hlrcRun = 0, 0
		} else {
			ap.multi++
			ap.solo = 0
			ap.everMulti = true
			if nw >= c.params.Cost.HLRCWriters {
				ap.hlrcRun++
			} else {
				ap.hlrcRun = 0
			}
		}
		if ap.switches >= adaptMaxSwitches {
			continue
		}
		// Where bytes are dear (a non-zero HLRCMinDiff) HLRC wants
		// many-writer pages whose diffs are BULKY — migratory data each
		// writer rewrites nearly whole, where a reader's diff collection
		// moves a page's worth of bytes in k messages and one home fetch
		// would do. Falsely-shared fine-grain pages also show many
		// writers, but their diffs are tiny and MW's lazy merging moves
		// fewer bytes, so the page's mean diff size is the gate. The mean
		// is only trusted once the page has produced at least one diff per
		// observed writer (minus the epoch's first, which has no prior
		// copy): a single initialization diff must not pass for a
		// write-granularity profile.
		d := ap.diffs
		bulky := true
		if gate := c.params.Cost.HLRCMinDiff; gate > 0 {
			bulky = d.count >= int64(nw-1) && d.count > 0 && d.bytes >= d.count*int64(gate)
		}
		hlrcReady := ap.hlrcRun >= adaptHLRCEpochs && bulky
		var sw policySwitch
		switch {
		case ap.proto == WFSWG && ap.multi >= adaptMultiEpochs,
			ap.proto == WFS && nw >= 2 && last < 0:
			// Concurrent writers under the ownership protocol: pure
			// refusal churn, demote. (Solo-writer identity changes are NOT
			// a demotion signal: alternating band-boundary writers ping
			// ownership over cheaply, exactly what SW-class protocols are
			// for. Nor are writers that take turns on a page the
			// serialized-writer rule moved to WFS.)
			target := MW
			if hlrcReady {
				target = HLRC
			}
			sw = policySwitch{Page: pg, Proto: int32(target)}
		case ap.proto == MW && last >= 0 && d.max >= adaptBulkThreshold:
			// Bulky writers that take turns (a lock orders them): each
			// MW writer twins and diffs the page and every later writer
			// collects those diffs, where one ownership request per
			// writer would carry the page. The writer of the chain's
			// last interval holds the current copy and becomes owner.
			ap.maxVer++
			sw = policySwitch{Page: pg, Proto: int32(WFS), Owner: last, Version: ap.maxVer}
		case ap.proto == MW && hlrcReady:
			// Many concurrent writers every epoch: each reader merges that
			// many diffs per fault and the diff pool feeds garbage
			// collection; one home round trip wins.
			sw = policySwitch{Page: pg, Proto: int32(HLRC)}
		case ap.proto != WFSWG && !ap.everMulti &&
			bits.OnesCount64(ap.accessors&^ap.wrote) <= adaptMaxReaders &&
			(ap.solo >= adaptSoloSlow ||
				ap.solo >= adaptSoloEpochs && d.max >= adaptBulkThreshold):
			// A single writer has prevailed on a page that has NEVER shown
			// concurrent writers and that almost nobody else reads: hand it
			// to the ownership-based protocol with that writer as its
			// owner, who then writes without twins or diffs. Bulk rewriters
			// (diffs a good fraction of the page) promote on the short
			// streak — every MW epoch costs them twin+diff page copies, so
			// delay is expensive. Fine-grain solo pages promote on the long
			// streak only: their twins are cheap, so the promotion must
			// first prove the page is not a mostly-solo page with periodic
			// multi-writer bursts, which would churn through promote/demote
			// cycles. The everMulti and reader gates keep burst-prone and
			// widely-read pages (positions, bodies, pedigree banks) in MW,
			// whose lazy diffs serve them more cheaply than owner page
			// fetches. The version is bumped past everything ever published
			// so no stale ex-owner can satisfy a grant check.
			ap.maxVer++
			sw = policySwitch{Page: pg, Proto: int32(WFSWG), Owner: ap.soloWriter, Version: ap.maxVer}
		default:
			continue
		}
		ap.proto = Protocol(sw.Proto)
		ap.switches++
		ap.solo, ap.multi, ap.hlrcRun = 0, 0, 0
		out = append(out, sw)
	}
	ad.chainProcs, ad.chainVCs = ad.chainProcs[:0], ad.chainVCs[:0]
	return out
}

// chainLast returns the writer of the last of the chain's intervals ivs
// when they form one happens-before chain, and -1 when two of them are
// concurrent (or there are none). Along a chain the vector-clock sums
// strictly grow, so after sorting by sum each interval must precede the
// next. It sorts ivs in place.
func (ad *adaptState) chainLast(ivs []int32, procs int) int {
	if len(ivs) == 0 {
		return -1
	}
	ivc := func(i int32) vc.VC { return ad.chainVCs[int(i)*procs : int(i+1)*procs] }
	slices.SortFunc(ivs, func(a, b int32) int { return cmp.Compare(ivc(a).Sum(), ivc(b).Sum()) })
	for i := 1; i < len(ivs); i++ {
		if !ivc(ivs[i-1]).Leq(ivc(ivs[i])) {
			return -1
		}
	}
	return int(ad.chainProcs[ivs[len(ivs)-1]])
}

// applyPolicySwitches re-points the switched pages at their new protocols.
// Every node runs this in process context while ingesting a barrier
// release — after the global knowledge is merged, before the per-protocol
// release hooks — so all nodes flip a page at the same epoch, with no app
// code running and no interval open. It reports whether a page moved to
// HLRC; every node's page bindings agree, so every node reports the same,
// and the caller owes the cluster a quiescent round before any body
// resumes (barrierRound).
func (n *Node) applyPolicySwitches(sws []policySwitch) (quiesce bool) {
	for _, sw := range sws {
		ps := n.pages[sw.Page]
		target := Protocol(sw.Proto)
		if ps.proto == target {
			continue
		}
		toWFS := target == WFS || target == WFSWG
		toHLRC := target == HLRC

		// The page's lazy diff must be materialized under the OLD
		// protocol: after the flip, a later write would reuse the same
		// twin and leak post-switch data into the pre-switch diff.
		if ps.undiffed.ok() {
			d := n.makeDiff(sw.Page, ps)
			n.proc.Advance(n.c.params.diffCost(d))
		}

		// Drain: the node the NEW protocol treats as the page's data
		// authority — the WFS keeper, the HLRC home — brings its copy
		// fully current under the OLD policy, while the diffs backing the
		// old history are still serviceable. Peers that fetch from the
		// authority before its drain completes converge through their
		// protocols' own retry loops; no peer flushes to a new HLRC home
		// before it completes (the caller's quiescent round).
		authority := (toWFS && sw.Owner == n.id) ||
			(toHLRC && n.resolveHome(sw.Page) == n.id)
		if authority && (ps.data == nil || ps.status == pageInvalid || len(ps.pending) > 0) {
			n.validate(sw.Page)
		}
		if toHLRC && n.resolveHome(sw.Page) == n.id {
			// The drained home copy subsumes every owner copy published
			// before the switch (the chain-head fetch plus the concurrent
			// diffs), but the LRC merge keeps the applied vector
			// conservative about concurrent owner intervals — it force-drops
			// owner notices instead of dominating them. HLRC readers settle
			// by applied domination alone, so fold every known notice's
			// interval into the home's applied vector; content-wise it is
			// already there.
			for _, r := range ps.knownWNs {
				ps.applied.Join(n.ivc(r))
			}
		}

		// Wash and seed. Copies, pending notices and known write notices
		// survive: the new protocol's fault paths consume them.
		n.switchPage(sw.Page, ps, target, sw)
		quiesce = quiesce || toHLRC
	}
	return quiesce
}
