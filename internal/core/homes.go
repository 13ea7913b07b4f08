package core

import (
	"fmt"
	"strings"
	"sync"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// The home-assignment seam: the home-based protocols (pure SW request
// routing, HLRC diff flushing) used to hardwire homes to pg % procs.
// Home placement is the dominant cost knob for eager-flush protocols
// (Zhou/Iftode/Li, OSDI 1996), so it is now a pluggable strategy behind
// HomeAssigner, selected per cluster through Params.Home and a registry
// mirroring the protocol registry. Protocols that never consult a home
// (MW, WFS, WFS+WG) are unaffected by the choice.

// Home identifies a registered home-assignment policy (an index into the
// home registry). The built-in constants are stable.
type Home int

// The built-in home policies, registered during package initialization in
// this order so the ids are stable.
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

// HomeSpec describes one registered home policy.
type HomeSpec struct {
	// Name is the canonical policy name (e.g. "first-touch").
	Name string
	// Aliases are alternative spellings accepted by ParseHome
	// (case-insensitive, like Name).
	Aliases []string
	// Description is a one-line summary for CLI listings.
	Description string
	// New builds the policy's assigner for one cluster.
	New func() HomeAssigner
}

// The builtins are registered during variable initialization (see the
// protocol registry for the ordering argument).
var (
	homeRegMu    sync.RWMutex
	homeRegistry = builtinHomeSpecs()
	homeByName   = homeNameIndex(homeRegistry)
)

func builtinHomeSpecs() []HomeSpec {
	return []HomeSpec{
		HomeStatic: {Name: "static", Description: "page pg lives at node pg % procs (default)",
			New: func() HomeAssigner { return staticHomes{} }},
		HomeFirstTouch: {Name: "first-touch", Aliases: []string{"firsttouch", "ft"},
			Description: "home bound at a page's first fault, agreed via the allocator",
			New:         func() HomeAssigner { return &firstTouchHomes{} }},
		HomeRRAlloc: {Name: "round-robin-alloc", Aliases: []string{"rr-alloc", "rr"},
			Description: "homes striped per Alloc call so each array spreads evenly",
			New:         func() HomeAssigner { return &rrAllocHomes{} }},
		HomeBlock: {Name: "block", Aliases: []string{"blocked"},
			Description: "contiguous page ranges per proc (band partitioning)",
			New:         func() HomeAssigner { return &blockHomes{} }},
	}
}

func homeNameIndex(specs []HomeSpec) map[string]Home {
	idx := make(map[string]Home)
	for i, s := range specs {
		idx[foldName(s.Name)] = Home(i)
		for _, a := range s.Aliases {
			idx[foldName(a)] = Home(i)
		}
	}
	return idx
}

// RegisterHome adds a home policy to the registry and returns its id. It
// fails if the spec is incomplete or any of its names is already taken.
func RegisterHome(s HomeSpec) (Home, error) {
	if strings.TrimSpace(s.Name) == "" {
		return 0, fmt.Errorf("dsm: home policy name must not be empty")
	}
	if s.New == nil {
		return 0, fmt.Errorf("dsm: home policy %q has no assigner factory", s.Name)
	}
	homeRegMu.Lock()
	defer homeRegMu.Unlock()
	names := append([]string{s.Name}, s.Aliases...)
	for _, name := range names {
		if prev, ok := homeByName[foldName(name)]; ok {
			return 0, fmt.Errorf("dsm: home policy name %q already registered (by %s)",
				name, homeRegistry[prev].Name)
		}
	}
	id := Home(len(homeRegistry))
	homeRegistry = append(homeRegistry, s)
	for _, name := range names {
		homeByName[foldName(name)] = id
	}
	return id, nil
}

// MustRegisterHome is RegisterHome, panicking on error (for init-time use).
func MustRegisterHome(s HomeSpec) Home {
	id, err := RegisterHome(s)
	if err != nil {
		panic(err)
	}
	return id
}

// ParseHome resolves a home policy name — canonical or alias,
// case-insensitive — to its id.
func ParseHome(name string) (Home, error) {
	homeRegMu.RLock()
	defer homeRegMu.RUnlock()
	if id, ok := homeByName[foldName(name)]; ok {
		return id, nil
	}
	return 0, fmt.Errorf("dsm: unknown home policy %q (registered: %s)",
		name, strings.Join(homeNamesLocked(), ", "))
}

// RegisteredHomes lists every home policy in registration order.
func RegisteredHomes() []Home {
	homeRegMu.RLock()
	defer homeRegMu.RUnlock()
	out := make([]Home, len(homeRegistry))
	for i := range homeRegistry {
		out[i] = Home(i)
	}
	return out
}

// HomeNames lists the canonical home policy names in registration order.
func HomeNames() []string {
	homeRegMu.RLock()
	defer homeRegMu.RUnlock()
	return homeNamesLocked()
}

func homeNamesLocked() []string {
	names := make([]string, len(homeRegistry))
	for i, s := range homeRegistry {
		names[i] = s.Name
	}
	return names
}

func (h Home) String() string {
	homeRegMu.RLock()
	defer homeRegMu.RUnlock()
	if int(h) < 0 || int(h) >= len(homeRegistry) {
		return "?"
	}
	return homeRegistry[h].Name
}

// Description returns the home policy's one-line summary.
func (h Home) Description() string {
	homeRegMu.RLock()
	defer homeRegMu.RUnlock()
	if int(h) < 0 || int(h) >= len(homeRegistry) {
		return ""
	}
	return homeRegistry[h].Description
}

// newAssigner instantiates the policy's assigner, panicking on an
// unregistered id (a Params misconfiguration).
func (h Home) newAssigner() HomeAssigner {
	homeRegMu.RLock()
	defer homeRegMu.RUnlock()
	if int(h) < 0 || int(h) >= len(homeRegistry) {
		panic(fmt.Sprintf("dsm: home policy id %d is not registered", int(h)))
	}
	return homeRegistry[h].New()
}

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
	dir   []int   // authoritative binding, maintained at homeDirNode
	cache [][]int // per-node learned bindings
}

func (h *firstTouchHomes) Prepare(c *Cluster) {
	used := c.usedPages()
	h.dir = make([]int, used)
	for i := range h.dir {
		h.dir[i] = -1
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
	return h.dir[pg]
}

func (h *firstTouchHomes) Resolve(n *Node, pg int) int {
	if hm := h.cache[n.id][pg]; hm >= 0 {
		return hm
	}
	if n.id == homeDirNode {
		// The directory node consults (and binds) its own state locally.
		hm := h.dir[pg]
		if hm < 0 {
			hm = n.id
			h.dir[pg] = hm
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
	hm := h.dir[m.Page]
	if hm < 0 {
		hm = from
		h.dir[m.Page] = hm
	}
	c.Reply(homeBindResp{Home: hm})
}
