package core

import (
	"fmt"
	"sync/atomic"

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

	data    []byte // local copy; nil until first fetch (node 0, or the home, starts with one)
	applied vc.VC  // writes reflected in data

	// Multiple-writer machinery.
	twin     []byte
	dirtyMW  bool         // written under a twin in the current interval
	undiffed *WriteNotice // my last WN whose diff hasn't been created yet

	// Invalidation.
	pending []*WriteNotice // received write notices not yet applied
	// knownWNs indexes every write notice this node has seen for the page
	// (its own and ingested ones); installPage uses it to replay writes an
	// incoming copy misses. Pruned at garbage collection.
	knownWNs []*WriteNotice

	// Single-writer machinery.
	owner            bool
	wasLast          bool // dropped ownership after a refusal/GC; still the grant authority
	version          int32
	ownedSince       transport.Time
	wroteSW          bool // wrote as owner in the current interval
	dropOwnership    bool // refusal received: drop ownership at next release
	perceivedOwner   int
	perceivedVersion int32
	ownerWN          *WriteNotice
	myLastWN         *WriteNotice

	// Adaptation state.
	seesFS       bool         // local perception of write-write false sharing
	copysetFS    map[int]bool // writer-side: requester -> last reported FS perception
	lastDiffSize int          // largest diff observed recently for this page
	wgProbed     bool         // WFS+WG: page has been through its MW measuring phase

	// Deferred ownership requests (pure SW): queued while we hold the page
	// within its quantum, or while our own ownership request is in flight.
	deferred  []transport.Call
	swWaiting bool

	// published marks that the page's current contents are exported in the
	// node's one-sided region (region.go); any mutation of data/applied must
	// go through invalidateRegion first.
	published bool
}

// Node is one DSM processor: protocol state plus the simulated process
// executing the application.
type Node struct {
	c    *Cluster
	id   int
	proc transport.Proc

	vclock  vc.VC
	knownTS []int32
	// intervals[p] lists proc p's intervals known to this node, in TS order.
	intervals [][]*Interval

	pages     []*pageState
	dirty     []int // pages written in the current interval
	diffCache map[wnKey]*mem.Diff

	wroteSinceGC []bool
	liveDiffs    int64 // diffs currently cached (created + received)

	// freeTwins holds the buffers of twins this node has already diffed,
	// for makeTwin to reuse: a twin never leaves its node. Emptied at
	// garbage collection, so it never outlives the pool it came from.
	freeTwins [][]byte

	// Checkpointing (ckpt.go): the node's durable store (nil when
	// checkpointing is off) and the cluster-dirty page set accumulated
	// since the node's last checkpoint — its own writes plus every write
	// notice it ingested, so at a barrier the union over partitions is
	// the cluster's dirty set.
	ckpt      *CkptStore
	ckptDirty []bool

	// lock state per lock id (only for locks this node has interacted with)
	locks map[int]*nodeLock

	// barEpoch counts the barrier rounds this node has completed (the
	// epoch it stamps on its next arrival).
	barEpoch int64

	// lastGlobal is the global knowledge vector from the previous barrier
	// release: everything at or below it is known to every node, so a
	// barrier arrival ships every interval above it. Shipping the full
	// knowledge delta (not just our own intervals) keeps the manager's
	// knowledge happened-before-closed at every instant, which the merge
	// procedure's applied-vector bookkeeping relies on.
	lastGlobal []int32

	// shippedOwnTS is the highest own-interval TS that has ever left this
	// node (piggybacked on a lock grant or barrier message). Intervals
	// above it are provably unknown everywhere else — interval knowledge
	// propagates only through those watermark-based shipments — which is
	// what licenses the omittable-write pass (omit.go).
	shippedOwnTS int32

	// region is the node's exported one-sided read region: one published
	// snapshot slot per page, read by the transport's region server
	// goroutine without any protocol lock (region.go). Nil unless the
	// runtime negotiated a region lane for this node.
	region []atomic.Pointer[regionPub]

	Stats stats.Node
}

type nodeLock struct {
	state    lockNodeState
	pending  transport.Call // queued acquire waiting for our release
	pendKnow []int32        // its knowledge vector
	relVC    vc.VC          // our vector clock at the last release
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
		intervals:  make([][]*Interval, c.params.Procs),
		diffCache:  make(map[wnKey]*mem.Diff),
		locks:      make(map[int]*nodeLock),
		lastGlobal: make([]int32, c.params.Procs),
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
	} else if ps.status == pageInvalid {
		n.readFault(pg)
	}
	return ps.data, addr & (mem.PageSize - 1)
}

// markWritten records the write for write-notice generation. Owned pages
// (SW mode) use the wroteSW flag; MW pages were marked dirty when the twin
// was created.
func (n *Node) markWritten(pg int, ps *pageState) {
	n.invalidateRegion(pg, ps)
	if ps.owner && !ps.wroteSW {
		ps.wroteSW = true
		n.dirty = append(n.dirty, pg)
	}
	n.c.detector.noteAccess(pg, n.id, true)
}

// Access is the exported single-element protocol entry point: it returns
// the live page bytes and in-page offset for a size-byte element at addr,
// running the fault handlers exactly like the scalar accessors. The typed
// public API (Shared.At/Set) loads and stores through it.
func (n *Node) Access(addr, size int, write bool) ([]byte, int) {
	return n.access(addr, size, write)
}

// ReadU32 reads a 32-bit word at byte address addr.
func (n *Node) ReadU32(addr int) uint32 {
	b, off := n.access(addr, 4, false)
	return mem.LoadUint32(b, off)
}

// WriteU32 writes a 32-bit word at byte address addr.
func (n *Node) WriteU32(addr int, v uint32) {
	b, off := n.access(addr, 4, true)
	mem.StoreUint32(b, off, v)
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
	n.c.detector.noteAccess(pg, n.id, false)
	n.validate(pg)
	ps := n.pages[pg]
	if ps.status == pageInvalid {
		ps.status = pageReadOnly
	}
}

// writeFault services a write miss or a write to a protected page,
// dispatching on the page's current mode.
func (n *Node) writeFault(pg int) {
	n.Stats.WriteFaults++
	ps := n.pages[pg]
	n.c.detector.noteAccess(pg, n.id, false)

	if ps.owner {
		// Owner writing again (page was downgraded only at transfer; an
		// owned page can be Invalid right after a GC collapse).
		if ps.status == pageInvalid || len(ps.pending) > 0 {
			n.validate(pg)
		}
		ps.status = pageReadWrite
		return
	}

	ps.policy.WriteFault(n, pg, ps)
}

// makeTwin creates the pristine copy used for diffing; if a previous
// interval's twin is still pending (lazy diffing), its diff is created
// first so the twin can be reused.
func (n *Node) makeTwin(pg int, ps *pageState) {
	if ps.undiffed != nil {
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
	if k := len(n.freeTwins) - 1; k >= 0 {
		ps.twin = append(n.freeTwins[k][:0], ps.data...)
		n.freeTwins = n.freeTwins[:k]
	} else {
		ps.twin = mem.Twin(ps.data)
	}
	ps.dirtyMW = true
	n.dirty = append(n.dirty, pg)
	n.Stats.TwinsCreated++
	n.Stats.CumTwinBytes += int64(len(ps.twin))
	n.Stats.LiveTwinBytes += int64(len(ps.twin))
	n.Stats.NoteLive()
}

// makeDiff turns the node's pending twin into a diff (lazily, on demand).
// It may run in handler context (serving a diff request), so it charges no
// process time itself; callers in process context use diffCost, handler
// callers fold the cost into the reply delay.
func (n *Node) makeDiff(pg int, ps *pageState) *mem.Diff {
	wn := ps.undiffed
	if wn == nil {
		panic("dsm: makeDiff without pending twin")
	}
	d := mem.MakeDiff(pg, ps.twin, ps.data)
	wn.DataHint = d.DataBytes()
	n.storeDiff(wn, d, true)
	ps.undiffed = nil
	n.Stats.LiveTwinBytes -= int64(len(ps.twin))
	n.freeTwins = append(n.freeTwins, ps.twin) // d holds copies of ps.data only
	ps.twin = nil
	n.noteDiffSize(ps, d)
	n.c.detector.noteDiff(pg, d)
	return d
}

// storeDiff caches a diff on this node, accounting for the diff pool.
func (n *Node) storeDiff(wn *WriteNotice, d *mem.Diff, created bool) {
	k := keyOf(wn)
	if _, ok := n.diffCache[k]; ok {
		return
	}
	n.diffCache[k] = d
	n.Stats.DiffsStored++
	n.liveDiffs++
	n.Stats.LiveDiffBytes += int64(d.EncodedSize())
	if created {
		n.Stats.DiffsCreated++
		n.Stats.CumDiffBytes += int64(d.EncodedSize())
	}
	n.Stats.NoteLive()
	n.c.noteDiffCount(+1)
}

// noteDiffSize feeds the write-granularity adaptation (WFS+WG).
func (n *Node) noteDiffSize(ps *pageState, d *mem.Diff) {
	if s := d.DataBytes(); s > ps.lastDiffSize {
		ps.lastDiffSize = s
	} else if s > 0 {
		// Exponential-ish tracking so the estimate can shrink too.
		ps.lastDiffSize = (ps.lastDiffSize + s) / 2
	}
}

// setMode flips the per-page state variable, counting transitions.
func (n *Node) setMode(ps *pageState, m pageMode) {
	if ps.mode == m {
		return
	}
	ps.mode = m
	if m == modeMW {
		n.Stats.SWtoMW++
	} else {
		n.Stats.MWtoSW++
	}
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
	n.Stats.LiveDiffBytes -= int64(d.EncodedSize())
	n.Stats.NoteLive()
	n.c.noteDiffCount(-1)
}

// memPressure reports whether this node's twin+diff pool exceeds the GC
// trigger.
func (n *Node) memPressure() bool {
	return n.Stats.LiveTwinBytes+n.Stats.LiveDiffBytes > n.c.params.DiffSpaceLimit
}
