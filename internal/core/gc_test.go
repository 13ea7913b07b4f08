package core

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// The test build checks every collection's hints against a scan of every
// node's page table: the reference for gcHints, which reads only node 0's
// state and the barrier arrivals. The scan needs every node held still,
// which only the simulator does (an unframed runtime), so runs on the tcp
// mesh skip it.
func init() {
	gcHintsCheck = func(c *Cluster, hints []gcHint) {
		if c.framed {
			return
		}
		if want := c.computeGCHints(); !slices.Equal(hints, want) {
			panic(fmt.Sprintf("dsm: gc hints %v, scan of every node %v", hints, want))
		}
		gcHintsChecked.Add(1)
	}
}

// gcHintsChecked counts the collections whose hints matched the scan.
var gcHintsChecked atomic.Int64

// computeGCHints decides, per written page, which node keeps (and validates)
// the page by reading every node's page state.
func (c *Cluster) computeGCHints() []gcHint {
	var hints []gcHint
	for pg := 0; pg < c.usedPages(); pg++ {
		// All nodes agree on a page's protocol at barrier time (switches
		// are barrier-epoch synchronized), so node 0's view stands for
		// the cluster's.
		policy := c.nodes[0].pages[pg].policy
		if !policy.GCEligible() {
			continue
		}
		written := false
		for _, n := range c.nodes {
			written = written || n.wroteSinceGC[pg]
		}
		if !written {
			continue
		}
		keeper := -1
		version := int32(0)
		if policy.GCKeeperIsOwner() {
			for _, n := range c.nodes {
				ps := n.pages[pg]
				if ps.owner || ps.wasLast {
					if keeper != -1 {
						panic(fmt.Sprintf("dsm: page %d has two ownership authorities (%d and %d)", pg, keeper, n.id))
					}
					keeper = n.id
					version = ps.version
				}
			}
		}
		if keeper == -1 {
			// MW: the lowest-numbered writer that holds a copy.
			for _, n := range c.nodes {
				if n.wroteSinceGC[pg] && n.pages[pg].data != nil {
					keeper = n.id
					break
				}
			}
		}
		if keeper == -1 {
			continue
		}
		hints = append(hints, gcHint{Page: pg, Owner: keeper, Version: version})
	}
	return hints
}

// GCHintsChecked reports how many collections' hints matched the scan.
func GCHintsChecked() int64 { return gcHintsChecked.Load() }
