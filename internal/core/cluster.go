package core

import (
	"fmt"
	"sync"

	"adsm/internal/mem"
	"adsm/internal/stats"
	"adsm/internal/transport"
)

// Cluster is a DSM system: Procs nodes, a transport moving the protocol
// messages, and the shared segment. Create one with New, allocate shared
// memory with Alloc, then Run the SPMD program. The transport substrate —
// the deterministic simulator or a real runtime — is chosen by
// Params.Runtime; protocol code only ever sees the transport seam.
type Cluster struct {
	params Params
	policy Policy
	rt     transport.Runtime
	local  []int // node ids hosted by this runtime instance
	nodes  []*Node

	npages    int
	allocated int
	started   bool

	// The barrier and recovery managers' state: only node 0, the manager,
	// touches either.
	bar barrierMgr
	rec recoverMgr

	// framed reports that the runtime moves messages as binary frames (its
	// Count reports lanes): decoded diffs alias frame bodies, which
	// storeDiff detaches. The simulator hands over the sender's objects.
	framed bool

	// Adaptive meta-protocol decision state (nil under static protocols).
	adapt *adaptState

	// Figure 3 instrumentation, set at construction or never: the total
	// live diffs across all nodes, which every node updates under
	// seriesMu, sampled into DiffSeries.
	seriesMu       sync.Mutex
	totalLiveDiffs int64
	DiffSeries     *stats.Series

	gcRuns int64 // barrier manager (node 0) only

	// zero is the all-zero page frame every initial copy starts on; frames
	// checks that no shared frame is written (test builds, frame.go).
	zero   []byte
	frames frameLedger
}

// New creates a cluster with the given parameters.
func New(p Params) *Cluster {
	if p.Procs < 1 {
		panic("dsm: need at least one processor")
	}
	if p.Procs > 64 {
		panic("dsm: the barrier manager's per-page node bitmasks support at most 64 processors")
	}
	npages := (p.MaxSharedBytes + mem.PageSize - 1) / mem.PageSize
	c := &Cluster{
		params: p,
		policy: p.Protocol.newPolicy(),
		npages: npages,
		zero:   mem.NewPage(),
	}
	c.frames.share(c.zero)
	if p.Runtime != nil {
		c.rt = p.Runtime(p)
	} else {
		if transport.DefaultRuntime == nil {
			panic("dsm: no transport runtime configured and no default registered (import adsm/internal/sim)")
		}
		c.rt = transport.DefaultRuntime(p.Procs, p.Net, p.EventLimit)
	}
	c.local = c.rt.LocalNodes()
	var probe stats.Counters
	c.rt.Count(&probe)
	c.framed = probe.LaneBytes != nil
	// A Node exists for every id (Node and Totals index by id), but only
	// hosted nodes register handlers, get page state, and execute
	// bodies. Per-page state is built in Run, once the allocation is
	// known.
	for i := 0; i < p.Procs; i++ {
		c.nodes = append(c.nodes, newNode(c, i))
	}
	for _, i := range c.local {
		n := c.nodes[i]
		c.rt.Register(i, func(call transport.Call, from int, m transport.Msg) {
			n.handle(call, from, m)
		})
	}
	return c
}

// Params returns the cluster's configuration.
func (c *Cluster) Params() Params { return c.params }

// Transport exposes the transport runtime (for traffic accounting and
// time queries).
func (c *Cluster) Transport() transport.Runtime { return c.rt }

// Partial reports whether this cluster instance hosts only a subset of the
// nodes (one endpoint of a multi-process deployment). Statistics and
// checksums of a partial cluster cover the hosted nodes only.
func (c *Cluster) Partial() bool { return len(c.local) < c.params.Procs }

// Hosts reports whether node id's body executes in this cluster instance.
func (c *Cluster) Hosts(id int) bool {
	for _, l := range c.local {
		if l == id {
			return true
		}
	}
	return false
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// GCRuns reports how many garbage collections ran.
func (c *Cluster) GCRuns() int64 { return c.gcRuns }

// usedPages returns the number of pages covered by allocations.
func (c *Cluster) usedPages() int {
	return (c.allocated + mem.PageSize - 1) / mem.PageSize
}

// Alloc reserves n bytes of shared memory before Run. The returned
// address is always 8-byte aligned, so any supported element type is
// naturally aligned at it. Pages are zero-initialized and initially owned
// by node 0, like Tmk_malloc on the allocating processor.
func (c *Cluster) Alloc(n int) int { return c.alloc("Alloc", n, 8) }

// AllocPageAligned reserves n bytes starting on a page boundary.
func (c *Cluster) AllocPageAligned(n int) int { return c.alloc("AllocPageAligned", n, mem.PageSize) }

func (c *Cluster) alloc(what string, n, align int) int {
	if c.started {
		// Page state and home tables were sized by the allocation
		// when Run started; growing it now would hand out addresses no
		// node has state for.
		panic(fmt.Sprintf("dsm: Alloc after Run (%s(%d))", what, n))
	}
	if n <= 0 {
		panic(fmt.Sprintf("dsm: %s(%d): allocation size must be positive", what, n))
	}
	addr := (c.allocated + align - 1) &^ (align - 1)
	if addr+n > c.npages*mem.PageSize {
		panic(fmt.Sprintf("dsm: shared segment exhausted (%d + %d > %d)", addr, n, c.npages*mem.PageSize))
	}
	c.allocated = addr + n
	return addr
}

// Run executes body on every node (SPMD) and returns the virtual time at
// completion. Per-page state — page structs, initial copies, home tables,
// the barrier manager's writer masks — is built here rather than at
// construction: every allocation has happened, so everything is sized by
// usedPages(), what the program shares, instead of the segment's
// capacity. Pages beyond the allocation are unreachable (access panics
// above c.allocated).
func (c *Cluster) Run(body func(n *Node)) (transport.Time, error) {
	if c.started {
		panic("dsm: cluster already ran")
	}
	c.started = true
	used := c.usedPages()
	c.bar.writers = make([]uint64, used)
	for _, i := range c.local {
		n := c.nodes[i]
		n.buildPages(used)
		for pg, ps := range n.pages {
			c.policy.InitPage(n, pg, ps)
		}
	}
	for _, i := range c.local {
		n := c.nodes[i]
		c.rt.Spawn(i, fmt.Sprintf("node%d", i), func(p transport.Proc) {
			n.proc = p
			body(n)
		})
	}
	if err := c.rt.Run(); err != nil {
		return c.rt.Now(), err
	}
	return c.rt.Now(), c.frames.verifyAll()
}

// zeroPage starts a page with no copy on the zero frame.
func (c *Cluster) zeroPage(ps *pageState) { ps.data, ps.dataShared = c.zero, true }

// handle dispatches an incoming protocol message (handler context; must
// not block).
func (n *Node) handle(call transport.Call, from int, m transport.Msg) {
	switch msg := m.(type) {
	case pageReq:
		n.servePage(call, from, msg)
	case diffReq:
		n.serveDiffs(call, from, msg)
	case spanFetchReq:
		n.serveSpanFetch(call, from, msg)
	case ownReq:
		n.serveOwnership(call, from, msg)
	case swOwnReq:
		n.serveSWOwn(call, from, msg)
	case hlrcFlush:
		n.serveHLRCFlush(call, from, msg)
	case acqReq:
		n.serveAcqReq(call, from, msg)
	case acqFwd:
		n.serveAcqFwd(call, from, msg)
	case acqRevoke:
		n.serveAcqRevoke(call, from, msg)
	case barArrive:
		n.serveBarrier(call, from, msg)
	case homeBindReq:
		n.serveBind(call, from, msg)
	case ckptPut:
		n.serveCkptPut(call, from, msg)
	case recArrive:
		n.serveRecArrive(call, from, msg)
	case recProtoArrive:
		n.serveRecProto(call, from, msg)
	default:
		panic(fmt.Sprintf("dsm: node %d received unknown message %T", n.id, m))
	}
}

// noteDiffCount maintains the cluster-wide live diff count (Figure 3).
func (c *Cluster) noteDiffCount(delta int64) {
	if c.DiffSeries == nil {
		return // the total is read only by the series
	}
	c.seriesMu.Lock()
	defer c.seriesMu.Unlock()
	c.totalLiveDiffs += delta
	c.DiffSeries.Append(int64(c.rt.Now()), c.totalLiveDiffs)
}

// Totals aggregates all nodes' statistics.
func (c *Cluster) Totals() stats.Counters {
	ns := make([]*stats.Counters, 0, len(c.nodes))
	for _, n := range c.nodes {
		ns = append(ns, &n.Stats)
	}
	return stats.Sum(ns)
}
