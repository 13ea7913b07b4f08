package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// The home-assignment seam: the home-based protocols (pure SW request
// routing, HLRC diff flushing) ask a HomeAssigner for a page's home.
// Home placement is the dominant cost knob for eager-flush protocols
// (Zhou/Iftode/Li, OSDI 1996), so it is selected per cluster through
// Params.Home from a fixed table mirroring the protocol table. Protocols
// that never consult a home (MW, WFS, WFS+WG) are unaffected by the
// choice.

// Home identifies a home-assignment policy. Like Protocol the set is
// closed: one HomeAssigner implementation plus one row of homeTable. The
// ids, names and listing order are API.
type Home int

const (
	// HomeStatic assigns page pg to node pg % procs (the classic
	// TreadMarks/CVM layout and the default).
	HomeStatic Home = iota
	// HomeFirstTouch binds a page's home at its first fault, agreed
	// cluster-wide through a directory on the allocator (node 0).
	HomeFirstTouch
	// HomeRRAlloc stripes homes per Alloc call, so each allocated array's
	// pages spread evenly over the processors.
	HomeRRAlloc
	// HomeBlock assigns contiguous page ranges to each processor, matching
	// band partitioning (SOR/Shallow row decompositions).
	HomeBlock
)

// HomeAssigner maps pages to home nodes for one cluster.
type HomeAssigner interface {
	// Prepare runs once at Run start, after every allocation, so policies
	// can precompute their page->home map from the allocation record. The
	// map covers c.usedPages(); no page beyond the allocation is ever
	// looked up.
	Prepare(c *Cluster)

	// Lookup returns page pg's home as currently known cluster-wide, or -1
	// when it is not yet bound (first touch before any fault). It must not
	// block (handler context and instrumentation use it).
	Lookup(c *Cluster, pg int) int

	// Resolve returns page pg's home as seen by node n, binding the page
	// first if the policy requires agreement. Process context: it may
	// block on an agreement RPC.
	Resolve(n *Node, pg int) int
}

var homeTable = [...]tableEntry{
	HomeStatic:     {"static", nil, "page pg lives at node pg % procs (default)"},
	HomeFirstTouch: {"first-touch", []string{"firsttouch", "ft"}, "home bound at a page's first fault, agreed via the allocator"},
	HomeRRAlloc:    {"round-robin-alloc", []string{"rr-alloc", "rr"}, "homes striped per Alloc call so each array spreads evenly"},
	HomeBlock:      {"block", []string{"blocked"}, "contiguous page ranges per proc (band partitioning)"},
}

// newAssigner builds the policy's assigner for one cluster, panicking on
// an unknown id (a Params misconfiguration).
func (h Home) newAssigner() HomeAssigner {
	switch h {
	case HomeStatic:
		return staticHomes{}
	case HomeFirstTouch:
		return &firstTouchHomes{}
	case HomeRRAlloc:
		return &rrAllocHomes{}
	case HomeBlock:
		return &blockHomes{}
	}
	panic(fmt.Sprintf("dsm: unknown home policy id %d", int(h)))
}

func (h Home) valid() bool { return h >= 0 && int(h) < len(homeTable) }

func (h Home) String() string {
	if !h.valid() {
		return "?"
	}
	return homeTable[h].name
}

// Description returns the home policy's one-line summary.
func (h Home) Description() string {
	if !h.valid() {
		return ""
	}
	return homeTable[h].desc
}

// ParseHome resolves a home policy name — canonical or alias,
// case-insensitive — to its id.
func ParseHome(name string) (Home, error) {
	if i, ok := lookupName(homeTable[:], name); ok {
		return Home(i), nil
	}
	return 0, fmt.Errorf("dsm: unknown home policy %q (known: %s)",
		name, strings.Join(HomeNames(), ", "))
}

// Homes lists every home policy in id order.
func Homes() []Home {
	out := make([]Home, len(homeTable))
	for i := range out {
		out[i] = Home(i)
	}
	return out
}

// HomeNames lists the canonical home policy names in id order.
func HomeNames() []string { return tableNames(homeTable[:]) }

// resolveHome returns page pg's home as seen by this node, binding the
// page first when the policy requires agreement (process context; may
// block on the agreement RPC).
func (n *Node) resolveHome(pg int) int { return n.c.homes.Resolve(n, pg) }

// --- static: pg % procs ---

type staticHomes struct{}

func (staticHomes) Prepare(c *Cluster)            {}
func (staticHomes) Lookup(c *Cluster, pg int) int { return pg % c.params.Procs }
func (staticHomes) Resolve(n *Node, pg int) int   { return pg % n.c.params.Procs }

// --- round-robin per allocation ---

// rrAllocHomes stripes each allocation's pages over the processors: the
// j-th page of every Alloc call lives at node j % procs, so a large array
// spreads evenly regardless of where it starts in the segment.
type rrAllocHomes struct{ homes []int }

func (h *rrAllocHomes) Prepare(c *Cluster) {
	h.homes = make([]int, c.usedPages())
	for i := range h.homes {
		h.homes[i] = -1
	}
	for _, span := range c.allocs {
		first := span.addr >> mem.PageShift
		last := (span.addr + span.size - 1) >> mem.PageShift
		for pg, j := first, 0; pg <= last; pg, j = pg+1, j+1 {
			if h.homes[pg] < 0 {
				// A page shared by two allocations keeps its first
				// assignment.
				h.homes[pg] = j % c.params.Procs
			}
		}
	}
	for pg, hm := range h.homes {
		if hm < 0 {
			h.homes[pg] = pg % c.params.Procs
		}
	}
}

func (h *rrAllocHomes) Lookup(c *Cluster, pg int) int { return h.homes[pg] }
func (h *rrAllocHomes) Resolve(n *Node, pg int) int   { return h.homes[pg] }

// --- block: contiguous bands ---

// blockHomes divides the used pages into procs contiguous bands (the same
// split the banded applications use for their rows), so a processor
// working on its band flushes to itself.
type blockHomes struct{ homes []int }

func (h *blockHomes) Prepare(c *Cluster) {
	procs := c.params.Procs
	used := c.usedPages()
	h.homes = make([]int, used)
	per, ext := used/procs, used%procs
	pg := 0
	for p := 0; p < procs; p++ {
		band := per
		if p < ext {
			band++
		}
		for i := 0; i < band; i++ {
			h.homes[pg] = p
			pg++
		}
	}
}

func (h *blockHomes) Lookup(c *Cluster, pg int) int { return h.homes[pg] }
func (h *blockHomes) Resolve(n *Node, pg int) int   { return h.homes[pg] }

// --- first touch ---

// homeDirNode hosts the first-touch directory: the allocator, node 0,
// which also holds every page's initial copy until a home emerges.
const homeDirNode = 0

// firstTouchHomes binds a page's home to the first node that faults on
// it. Agreement goes through a directory at the allocator: the first
// homeBindReq to arrive wins, every later request (and every later
// Resolve on any node) observes the same binding. Each node caches the
// bindings it has learned so the agreement RPC is paid once per
// (node, page).
type firstTouchHomes struct {
	// dir is the authoritative binding: only homeDirNode writes it, any
	// node may Lookup it, so entries are atomic.
	dir   []atomic.Int32
	cache [][]int // per-node learned bindings, each touched by its node only
}

func (h *firstTouchHomes) Prepare(c *Cluster) {
	used := c.usedPages()
	h.dir = make([]atomic.Int32, used)
	for i := range h.dir {
		h.dir[i].Store(-1)
	}
	h.cache = make([][]int, c.params.Procs)
	for p := range h.cache {
		h.cache[p] = make([]int, used)
		for i := range h.cache[p] {
			h.cache[p][i] = -1
		}
	}
}

func (h *firstTouchHomes) Lookup(c *Cluster, pg int) int {
	if h.dir == nil {
		return -1
	}
	return int(h.dir[pg].Load())
}

func (h *firstTouchHomes) Resolve(n *Node, pg int) int {
	if hm := h.cache[n.id][pg]; hm >= 0 {
		return hm
	}
	if n.id == homeDirNode {
		// The directory node consults (and binds) its own state locally.
		hm := int(h.dir[pg].Load())
		if hm < 0 {
			hm = n.id
			h.dir[pg].Store(int32(hm))
		}
		h.cache[n.id][pg] = hm
		return hm
	}
	n.Stats.HomeBinds++
	resp := n.c.rt.Call(n.proc, homeDirNode, homeBindReq{Page: pg}).(homeBindResp)
	h.cache[n.id][pg] = resp.Home
	return resp.Home
}

// homeBinder is implemented by assigners that service homeBindReq
// messages (first-touch agreement).
type homeBinder interface {
	serveBind(n *Node, c transport.Call, from int, m homeBindReq)
}

// serveBind runs at the directory node (handler context): bind the page
// to the first requester, answer every later request with the existing
// binding.
func (h *firstTouchHomes) serveBind(n *Node, c transport.Call, from int, m homeBindReq) {
	hm := int(h.dir[m.Page].Load())
	if hm < 0 {
		hm = from
		h.dir[m.Page].Store(int32(hm))
	}
	c.Reply(homeBindResp{Home: hm})
}
