package core

import (
	"fmt"

	"adsm/internal/mem"
	"adsm/internal/stats"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// pageState is one node's view of one shared page.
type pageState struct {
	status pageStatus
	mode   pageMode // the per-page "state variable" of the adaptive protocols

	// Per-page policy resolution: which protocol governs this page and the
	// (stateless, shared) policy instance serving it. Seeded from the
	// cluster protocol in buildPages; the adaptive meta-protocol re-points
	// both at InitPage and at barrier-epoch switches — never mid-interval,
	// so handler-context readers always see a consistent (proto, policy)
	// pair.
	proto  Protocol
	policy Policy

	// data is the local copy's frame (frame.go); nil until first fetch
	// (node 0, or the home, starts on the zero frame). dataShared marks a
	// frame that was handed out or adopted: it is read-only, and a store
	// moves the page onto a private copy first (ownData).
	data       []byte
	dataShared bool
	spanWrite  bool  // a write span's callback holds data (AccessRange)
	applied    vc.VC // writes reflected in data

	// Multiple-writer machinery. The twin may share its frame (twinShared):
	// a shared frame is already the pristine page a twin keeps.
	twin       []byte
	twinShared bool
	dirtyMW    bool  // written under a twin in the current interval
	undiffed   wnRef // my last notice whose diff hasn't been created yet

	// Invalidation. Notices are refs into the node's logs (interval.go).
	pending []wnRef // received write notices not yet applied
	// knownWNs indexes every write notice this node has seen for the page
	// (its own and ingested ones); installPage uses it to replay writes an
	// incoming copy misses. Pruned at garbage collection.
	knownWNs []wnRef

	// Single-writer machinery.
	owner            bool
	wasLast          bool // dropped ownership after a refusal/GC; still the grant authority
	version          int32
	ownedSince       transport.Time
	wroteSW          bool // wrote as owner in the current interval
	dropOwnership    bool // refusal received: drop ownership at next release
	perceivedOwner   int
	perceivedVersion int32
	myLastWN         wnRef // my last write notice of the page

	// Adaptation state.
	seesFS       bool         // local perception of write-write false sharing
	copysetFS    map[int]bool // writer-side: requester -> last reported FS perception
	lastDiffSize int          // largest diff observed recently for this page
	wgProbed     bool         // WFS+WG: page has been through its MW measuring phase

	// Sharing facts (sharing.go): this node's own view, for Table 2 and the
	// adaptive manager. fs is sticky, unlike seesFS. fact is 1 + the page's
	// index in Node.facts, 0 while the next arrival carries none for it.
	accessed, written, fs bool
	diffs                 diffTally
	fact                  int32

	// Pure SW request queue (ownership.go). swNext is the one ownership
	// request the page's home forwarded here: it waits until this node,
	// which owns the page or is waiting for its own grant, has held the
	// page for its quantum. swLast is kept at the home only: the node whose
	// request reached the home last.
	swNext transport.Call
	swLast int
}

// Node is one DSM processor: protocol state plus the simulated process
// executing the application.
type Node struct {
	c    *Cluster
	id   int
	proc transport.Proc

	vclock  vc.VC
	knownTS []int32
	// logs[p] holds proc p's intervals known to this node (interval.go).
	logs []writerLog
	// Scratch vectors: the interval closeInterval builds, the limits
	// cutLogs computes and garbage collection's snapshot of knownTS, which
	// must outlive the mini-barrier's release hooks (HLRC's cuts too).
	ivcScratch, cutScratch, gcKnown []int32
	// wnScratch collects the notices of the interval closeInterval builds.
	wnScratch []wnRow
	// wants groups fetchDiffs' requests per writer; reset on every call.
	wants [][]wnKey

	pages []*pageState
	// homes is this node's home of every used page (homes.go): filled by
	// the home policy, -1 until a first-touch page is bound.
	homes []int32
	dirty []int // pages written in the current interval
	// diffCache holds this node's own diffs and the foreign ones it
	// fetched or had pushed. Garbage collection empties it; between
	// barriers a foreign diff is evicted once every node knows its
	// interval and no pending notice here needs it (evict.go).
	diffCache map[wnKey]*mem.Diff
	// pushed holds the cached diffs that arrived on lock grants and no
	// fault has applied yet (push.go); nil until the first one. An entry
	// leaves when a fault applies the push, when eviction drops the diff
	// (a whole-page fetch made it useless), or at garbage collection.
	pushed map[wnKey]struct{}

	// Reclamation between barriers (evict.go): per peer, the highest
	// knowledge vector it sent on a lock request; per writer, the cached
	// foreign diffs in the order they were stored; how many are queued;
	// and the count at which the next eviction pass may run.
	peerKnown       [][]int32
	foreign         [][]wnKey
	queued, evictAt int

	wroteSinceGC []bool
	liveDiffs    int64 // diffs currently cached (created + received)

	// The live twin and diff pools in bytes: gauges that trigger garbage
	// collection (memPressure), not counters. noteLive keeps their
	// high-water mark in Stats.MaxLiveTwinDiff.
	liveTwinBytes, liveDiffBytes int64

	// freePages holds private page buffers this node let go of (diffed
	// twins, replaced copies) for copyFrame to reuse; a shared frame is
	// never pooled. Emptied at garbage collection, so it never outlives the
	// pool it came from.
	freePages [][]byte

	// Checkpointing (ckpt.go): the node's durable store (nil when
	// checkpointing is off) and the cluster-dirty page set accumulated
	// since the node's last checkpoint — its own writes plus every write
	// notice it ingested, so at a barrier the union over partitions is
	// the cluster's dirty set.
	ckpt      *CkptStore
	ckptDirty []bool

	// lock state per lock id (only for locks this node has interacted with)
	locks map[int]*nodeLock
	// mgrLocks holds the manager-side records of the locks this node
	// manages (lock id mod procs).
	mgrLocks map[int]*mgrLock

	// barEpoch counts the barrier rounds this node has completed (the
	// epoch it stamps on its next arrival).
	barEpoch int64
	// facts are the page facts the next barrier arrival reports to the
	// adaptive manager (sharing.go); nil under every other protocol.
	facts []pageFact

	// lastGlobal is the global knowledge vector from the previous barrier
	// release: everything at or below it is known to every node, so a
	// barrier arrival ships every interval above it. Shipping the full
	// knowledge delta (not just our own intervals) keeps the manager's
	// knowledge happened-before-closed at every instant, which the merge
	// procedure's applied-vector bookkeeping relies on.
	lastGlobal []int32

	Stats stats.Counters
}

type nodeLock struct {
	state   lockNodeState
	pending queuedAcq // exclusive acquire waiting for our release (c nil: none)
	relVC   vc.VC     // our vector clock at the last release, exclusive or read

	// Shared (read) mode; see locks.go.
	readers    uint64      // nodes granted a read since the token came here (bit per node)
	pendShared []queuedAcq // read requests queued for our release
	cached     bool        // we hold a revocable read grant
	reading    bool        // a read section is open, or our read request is in flight
	revoke     queuedAcq   // a writer's revoke, deferred until our read section ends
}

// queuedAcq is a lock request held for a later answer: the call and the
// requester's interval knowledge.
type queuedAcq struct {
	c    transport.Call
	know []int32
}

type lockNodeState uint8

const (
	lockNone    lockNodeState = iota // never held / not expecting
	lockWaiting                      // requested, grant may be forwarded to us early
	lockHolding
	lockReleased // we hold the token but are not in the critical section
)

// ID returns the node id (0..Procs-1).
func (n *Node) ID() int { return n.id }

// Procs returns the cluster size.
func (n *Node) Procs() int { return n.c.params.Procs }

// Proc exposes the simulated process (for Compute and time queries).
func (n *Node) Proc() transport.Proc { return n.proc }

// Compute models local computation taking d of virtual time.
func (n *Node) Compute(d transport.Time) { n.proc.Advance(d) }

func newNode(c *Cluster, id int) *Node {
	n := &Node{
		c:          c,
		id:         id,
		vclock:     vc.New(c.params.Procs),
		knownTS:    make([]int32, c.params.Procs),
		logs:       make([]writerLog, c.params.Procs),
		diffCache:  make(map[wnKey]*mem.Diff),
		peerKnown:  make([][]int32, c.params.Procs),
		locks:      make(map[int]*nodeLock),
		mgrLocks:   make(map[int]*mgrLock),
		lastGlobal: make([]int32, c.params.Procs),
	}
	procs := c.params.Procs
	known := make([]int32, (procs+3)*procs) // peerKnown's rows, then the three scratch vectors
	n.ivcScratch = known[procs*procs : (procs+1)*procs : (procs+1)*procs]
	n.cutScratch = known[(procs+1)*procs : (procs+2)*procs : (procs+2)*procs]
	n.gcKnown = known[(procs+2)*procs:]
	for p := range n.peerKnown {
		n.peerKnown[p] = known[p*procs : (p+1)*procs : (p+1)*procs]
		n.logs[p].base = 1
	}
	if c.params.CkptStores != nil {
		n.ckpt = c.params.CkptStores(id)
	}
	return n
}

// buildPages creates the node's per-page state for the used pages of the
// segment. Cluster.Run calls it: allocation is closed by then, so a node
// holds state for the pages the program shares, not for the segment's
// capacity (MaxSharedBytes), and no message can arrive earlier — real
// transports hold incoming frames until the runtime's Run. Only the generic
// fields are set; policy.InitPage follows for hosted nodes.
func (n *Node) buildPages(used int) {
	procs := n.c.params.Procs
	states := make([]pageState, used)
	clocks := make([]int32, used*procs)
	n.pages = make([]*pageState, used)
	n.homes = make([]int32, used)
	n.c.params.Home.fill(n.homes, procs)
	for pg := range n.pages {
		ps := &states[pg]
		ps.proto = n.c.params.Protocol
		ps.policy = n.c.policy
		ps.applied = vc.VC(clocks[pg*procs : (pg+1)*procs : (pg+1)*procs])
		// perceivedOwner stays 0: pages are allocated (and initially
		// owned) by node 0.
		n.pages[pg] = ps
	}
	n.wroteSinceGC = make([]bool, used)
	if n.ckpt != nil {
		n.ckptDirty = make([]bool, used)
	}
}

// --- typed shared-memory access ---

// access returns the page bytes and offset for a shared address, running
// the protocol fault handlers as needed. This is the software stand-in for
// the SIGSEGV handler: the same faults fire, triggered by a check instead
// of a trap.
func (n *Node) access(addr, size int, write bool) ([]byte, int) {
	if addr < 0 || addr+size > n.c.allocated {
		panic(fmt.Sprintf("dsm: access [%d,%d) outside shared segment (%d allocated)", addr, addr+size, n.c.allocated))
	}
	pg := addr >> mem.PageShift
	if (addr+size-1)>>mem.PageShift != pg {
		panic(fmt.Sprintf("dsm: access [%d,%d) crosses page boundary", addr, addr+size))
	}
	ps := n.pages[pg]
	if write {
		if ps.status != pageReadWrite {
			n.writeFault(pg)
		}
		n.markWritten(pg, ps)
		n.ownData(ps)
	} else if ps.status == pageInvalid {
		n.readFault(pg)
	}
	return ps.data, addr & (mem.PageSize - 1)
}

// markWritten records the write for write-notice generation and, on the
// node's first write of the page, in its sharing facts. Owned pages (SW
// mode) use the wroteSW flag; MW pages were marked dirty when the twin was
// created.
func (n *Node) markWritten(pg int, ps *pageState) {
	if ps.owner && !ps.wroteSW {
		ps.wroteSW = true
		n.dirty = append(n.dirty, pg)
	}
	if !ps.written {
		ps.written = true
		n.noteAccess(pg, ps)
	}
}

// Access is the exported single-element protocol entry point: it returns
// the live page bytes and in-page offset for a size-byte element at addr,
// running the fault handlers exactly like the scalar accessors. The typed
// public API (Shared.At/Set) loads and stores through it.
func (n *Node) Access(addr, size int, write bool) ([]byte, int) {
	return n.access(addr, size, write)
}

// ReadU64 reads a 64-bit word.
func (n *Node) ReadU64(addr int) uint64 {
	b, off := n.access(addr, 8, false)
	return mem.LoadUint64(b, off)
}

// WriteU64 writes a 64-bit word.
func (n *Node) WriteU64(addr int, v uint64) {
	b, off := n.access(addr, 8, true)
	mem.StoreUint64(b, off, v)
}

// --- faults ---

// readFault services a read miss: bring the page up to date with every
// write notice received for it.
func (n *Node) readFault(pg int) {
	n.Stats.ReadFaults++
	n.noteAccess(pg, n.pages[pg])
	n.validate(pg) // leaves the page read-only
}

// writeFault services a write miss or a write to a protected page,
// dispatching on the page's current mode.
func (n *Node) writeFault(pg int) {
	n.Stats.WriteFaults++
	ps := n.pages[pg]
	n.noteAccess(pg, ps)

	if ps.owner {
		// Owner writing again (page was downgraded only at transfer; an
		// owned page can be Invalid right after a GC collapse).
		if ps.status == pageInvalid || len(ps.pending) > 0 {
			n.validate(pg)
		}
		if n.ownWrite(pg, ps) {
			return
		}
		// A handler dropped or granted ownership while validate blocked.
	}
	ps.policy.WriteFault(n, pg, ps)
	n.checked(pg, ps)
}

// makeTwin creates the pristine copy used for diffing; if a previous
// interval's twin is still pending (lazy diffing), its diff is created
// first so the twin can be reused. Either way the write costs one page
// copy.
func (n *Node) makeTwin(pg int, ps *pageState) {
	if ps.undiffed.ok() {
		n.makeDiff(pg, ps)
	}
	if ps.twin != nil {
		// Twin already exists within this interval (re-fault after an
		// invalidation); keep it.
		if !ps.dirtyMW {
			ps.dirtyMW = true
			n.dirty = append(n.dirty, pg)
		}
		return
	}
	n.proc.Advance(n.c.params.CostTwin)
	if ps.dataShared {
		// A shared frame already is the pristine page: it becomes the
		// twin as is, and the store this fault serves moves the data onto
		// the one private copy (ownData).
		ps.twin, ps.twinShared = ps.data, true
	} else {
		ps.twin = n.copyFrame(ps.data)
	}
	ps.dirtyMW = true
	n.dirty = append(n.dirty, pg)
	n.Stats.TwinsCreated++
	n.Stats.TwinBytes += int64(len(ps.twin))
	n.liveTwinBytes += int64(len(ps.twin))
	n.noteLive()
}

// makeDiff turns the node's pending twin into a diff (lazily, on demand).
// It may run in handler context (serving a diff request), so it charges no
// process time itself; callers in process context use diffCost, handler
// callers fold the cost into the reply delay.
func (n *Node) makeDiff(pg int, ps *pageState) *mem.Diff {
	if !ps.undiffed.ok() {
		panic("dsm: makeDiff without pending twin")
	}
	d := mem.MakeDiff(pg, ps.twin, ps.data)
	n.storeDiff(ps.undiffed.key(pg), d, true)
	ps.undiffed = wnRef{}
	n.liveTwinBytes -= int64(len(ps.twin))
	n.dropTwin(ps) // d holds copies of ps.data only
	n.noteDiff(pg, ps, d.DataBytes(), true)
	return d
}

// storeDiff caches a diff on this node, accounting for the diff pool. A
// received diff decoded from a frame aliases the frame's body; it is
// detached first, so a cached diff keeps only its own bytes alive.
func (n *Node) storeDiff(k wnKey, d *mem.Diff, created bool) {
	if _, ok := n.diffCache[k]; ok {
		return
	}
	if !created {
		if n.c.framed {
			d.Detach()
		}
		n.noteForeign(k)
	}
	n.diffCache[k] = d
	n.Stats.DiffsStored++
	n.liveDiffs++
	n.liveDiffBytes += int64(d.EncodedSize())
	if created {
		n.Stats.DiffsCreated++
		n.Stats.DiffBytes += int64(d.EncodedSize())
	}
	n.noteLive()
	n.c.noteDiffCount(+1)
}

// dropDiff removes a diff from the local cache, reversing storeDiff's live
// accounting (HLRC retires diffs immediately after flushing them home).
func (n *Node) dropDiff(k wnKey) {
	d, ok := n.diffCache[k]
	if !ok {
		return
	}
	delete(n.diffCache, k)
	n.liveDiffs--
	n.liveDiffBytes -= int64(d.EncodedSize())
	n.noteLive()
	n.c.noteDiffCount(-1)
}

// noteLive updates the high-water mark after a change to the live pools.
func (n *Node) noteLive() {
	n.Stats.MaxLiveTwinDiff = max(n.Stats.MaxLiveTwinDiff, n.liveTwinBytes+n.liveDiffBytes)
}

// memPressure reports whether this node's twin+diff pool exceeds the GC
// trigger.
func (n *Node) memPressure() bool {
	return n.liveTwinBytes+n.liveDiffBytes > n.c.params.DiffSpaceLimit
}
