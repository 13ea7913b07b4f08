package core

import (
	"fmt"
	"strings"

	"adsm/internal/transport"
)

// Homes: the home-based protocols (pure SW request routing, HLRC diff
// flushing) send a page's traffic to its home. Home placement is the
// dominant cost knob for eager-flush protocols (Zhou/Iftode/Li, OSDI 1996),
// so it is selected per cluster through Params.Home from a fixed table
// mirroring the protocol table. Protocols that never consult a home (MW,
// WFS, WFS+WG) are unaffected by the choice.
//
// Every node keeps its own home table (Node.homes, one entry per used
// page); a policy only fills it when Run starts. An entry of -1 is a page
// not yet bound (first touch): the node learns the binding by message,
// from node 0, whose own table is the directory, or from the first flush
// that reaches it as the page's home.

// Home identifies a home-assignment policy. Like Protocol the set is
// closed: one case of fill plus one row of homeTable. The ids, names and
// listing order are API.
type Home int

const (
	// HomeStatic assigns page pg to node pg % procs (the classic
	// TreadMarks/CVM layout and the default).
	HomeStatic Home = iota
	// HomeFirstTouch binds a page's home at its first fault, agreed
	// cluster-wide through node 0's table (the allocator's).
	HomeFirstTouch
	// HomeBlock assigns contiguous page ranges to each processor, matching
	// band partitioning (SOR/Shallow row decompositions).
	HomeBlock
)

var homeTable = [...]tableEntry{
	HomeStatic:     {"static", nil, "page pg lives at node pg % procs (default)"},
	HomeFirstTouch: {"first-touch", []string{"firsttouch", "ft"}, "home bound at a page's first fault, agreed via the allocator"},
	HomeBlock:      {"block", []string{"blocked"}, "contiguous page ranges per proc (band partitioning)"},
}

// fill writes the policy's initial home of every page into homes: -1 for
// a page bound at its first fault. It panics on an unknown id (a Params
// misconfiguration).
func (h Home) fill(homes []int32, procs int) {
	switch h {
	case HomeStatic:
		for pg := range homes {
			homes[pg] = int32(pg % procs)
		}
	case HomeFirstTouch:
		for pg := range homes {
			homes[pg] = -1
		}
	case HomeBlock:
		// procs contiguous bands, the first len%procs one page longer: the
		// split the banded applications use for their rows, so a
		// processor working on its band flushes to itself.
		per, ext := len(homes)/procs, len(homes)%procs
		pg := 0
		for p := 0; p < procs; p++ {
			band := per
			if p < ext {
				band++
			}
			for ; band > 0; band-- {
				homes[pg] = int32(p)
				pg++
			}
		}
	default:
		panic(fmt.Sprintf("dsm: unknown home policy id %d", int(h)))
	}
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

// homeDirNode binds first-touch homes: the allocator, node 0, which also
// holds every page's initial copy until a home emerges. Its home table is
// the directory.
const homeDirNode = 0

// resolveHome returns page pg's home from this node's table, binding an
// unbound page first (process context; may block on the bind RPC). The
// directory node binds to itself; any other node asks it, and the first
// homeBindReq to arrive wins, so the RPC is paid once per (node, page).
func (n *Node) resolveHome(pg int) int {
	if hm := n.homes[pg]; hm >= 0 {
		return int(hm)
	}
	if n.id == homeDirNode {
		n.homes[pg] = int32(n.id)
		return n.id
	}
	n.Stats.HomeBinds++
	hm := n.c.rt.Call(n.proc, homeDirNode, homeBindReq{Page: pg}).(homeBindResp).Home
	n.homes[pg] = int32(hm)
	return hm
}

// serveBind runs at the directory node (handler context): bind the page
// to the first requester, answer every later request with the existing
// binding.
func (n *Node) serveBind(c transport.Call, from int, m homeBindReq) {
	if n.homes[m.Page] < 0 {
		n.homes[m.Page] = int32(from)
	}
	c.Reply(homeBindResp{Home: int(n.homes[m.Page])})
}
