package core

// Sharing facts: what a node sees of a page for itself, kept on its own
// pageState under the serialisation every other page field has. They feed
// the paper's Table 2 (Characteristics sums them over the hosted nodes),
// and under the adaptive protocol each barrier arrival reports what the
// arriver saw since its last one (pageFact), which is all the manager
// learns of them.
//
// A page is write-write falsely shared when two processors write it in
// concurrent intervals. Every node ingests every other node's notices, so
// ingestWN checks each foreign notice against the node's own last write of
// the page: of two concurrent writes, each writer sees the other's notice.

// diffTally sums diffs: how many, their data bytes, and the largest.
type diffTally struct {
	count, bytes int64
	max          int
}

func (t *diffTally) add(size int) { t.merge(diffTally{1, int64(size), size}) }

func (t *diffTally) merge(o diffTally) {
	t.count += o.count
	t.bytes += o.bytes
	t.max = max(t.max, o.max)
}

// pageFact is one page's news in a barrier arrival: the arriver accessed
// it for the first time, and the diffs of it that it made or applied since
// its last arrival. Applied diffs count because of when diffs are made: a
// writer that takes its turn under a lock and goes on to the barrier has
// its diff made later, in handler context, when its successor asks for
// it, so the successor's arrival is the first to report the diff in time
// for the epoch's decision.
type pageFact struct {
	Page  int
	First bool
	Diffs diffTally
}

// fact returns the page's entry in the facts this node's next barrier
// arrival carries, or nil when no adaptive manager decides from them.
func (n *Node) fact(pg int, ps *pageState) *pageFact {
	if ad := n.c.adapt; ad == nil || ad.frozen {
		return nil
	}
	if ps.fact == 0 {
		n.facts = append(n.facts, pageFact{Page: pg})
		ps.fact = int32(len(n.facts))
	}
	return &n.facts[ps.fact-1]
}

// takeFacts hands the pending facts to a barrier arrival.
func (n *Node) takeFacts() []pageFact {
	for _, f := range n.facts {
		n.pages[f.Page].fact = 0
	}
	fs := n.facts
	n.facts = nil
	return fs
}

// noteAccess records the node's first access to a page.
func (n *Node) noteAccess(pg int, ps *pageState) {
	if !ps.accessed {
		ps.accessed = true
		if f := n.fact(pg, ps); f != nil {
			f.First = true
		}
	}
}

// noteDiff records a diff of the page the node made or applied: in the
// write-granularity estimate WFS+WG adapts by, in Table 2's tallies (made
// diffs only) and in the adaptive manager's facts.
func (n *Node) noteDiff(pg int, ps *pageState, size int, made bool) {
	if size > ps.lastDiffSize {
		ps.lastDiffSize = size
	} else if size > 0 {
		// Exponential-ish tracking so the estimate can shrink too.
		ps.lastDiffSize = (ps.lastDiffSize + size) / 2
	}
	if made {
		ps.diffs.add(size)
	}
	if f := n.fact(pg, ps); f != nil {
		f.Diffs.add(size)
	}
}

// Characteristics summarizes Table 2's columns for one run.
type Characteristics struct {
	SharedPages   int     // pages accessed by >= 2 processors
	WrittenPages  int     // pages written at all
	FSPages       int     // write-write falsely shared pages
	FSPercent     float64 // FSPages as a share of WrittenPages (the paper's metric)
	AvgDiffBytes  float64 // mean diff size (write granularity)
	MaxDiffBytes  int
	DiffsRecorded int64
}

// Characteristics sums the hosted nodes' sharing facts once the run is
// over: a page is shared when two nodes accessed it, written or falsely
// shared when any node says so.
func (c *Cluster) Characteristics() Characteristics {
	var ch Characteristics
	var diffs diffTally
	for pg := range c.usedPages() {
		accessors, written, fs := 0, false, false
		for _, i := range c.local {
			ps := c.nodes[i].pages[pg]
			if ps.accessed {
				accessors++
			}
			written, fs = written || ps.written, fs || ps.fs
			diffs.merge(ps.diffs)
		}
		ch.SharedPages += btoi(accessors >= 2)
		ch.WrittenPages += btoi(written)
		ch.FSPages += btoi(fs)
	}
	if ch.WrittenPages > 0 {
		ch.FSPercent = 100 * float64(ch.FSPages) / float64(ch.WrittenPages)
	}
	if diffs.count > 0 {
		ch.AvgDiffBytes = float64(diffs.bytes) / float64(diffs.count)
	}
	ch.MaxDiffBytes, ch.DiffsRecorded = diffs.max, diffs.count
	return ch
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
