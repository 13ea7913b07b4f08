package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adsm/internal/vc"
)

// logNode is a node with empty logs and no cluster behind it beyond its
// size: enough to resolve refs to synthetic intervals.
func logNode(procs int) *Node {
	n := &Node{c: &Cluster{params: Params{Procs: procs}}, logs: make([]writerLog, procs), knownTS: make([]int32, procs)}
	for p := range n.logs {
		n.logs[p].base = 1
	}
	return n
}

// addInterval appends the interval with vector clock ivc to its writer's
// log with the given notices and returns refs to them.
func (n *Node) addInterval(proc int, ivc vc.VC, wns ...wnRow) []wnRef {
	ts := ivc[proc]
	n.logs[proc].push(ts, ivc, wns)
	n.knownTS[proc] = ts
	refs := make([]wnRef, len(wns))
	for i := range wns {
		refs[i] = wnRef{proc: int32(proc), ts: ts, idx: int32(i)}
	}
	return refs
}

// synthetic write notices with random interval DAGs for orderWNs tests.
func randomWNs(r *rand.Rand, n, procs int) (*Node, []wnRef) {
	node := logNode(procs)
	clocks := make([]vc.VC, procs)
	for p := range clocks {
		clocks[p] = vc.New(procs)
	}
	var wns []wnRef
	for i := 0; i < n; i++ {
		p := r.Intn(procs)
		// Occasionally synchronize with another processor, creating a
		// happened-before edge.
		if r.Intn(2) == 0 {
			q := r.Intn(procs)
			clocks[p].Join(clocks[q])
		}
		clocks[p].Tick(p)
		wns = append(wns, node.addInterval(p, clocks[p], wnRow{})...)
	}
	return node, wns
}

// Property: orderWNs returns a permutation respecting happened-before-1:
// if a happened before b, a is applied first.
func TestQuickOrderWNsRespectsHB(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, wns := randomWNs(r, 3+r.Intn(10), 2+r.Intn(3))
		out := n.orderWNs(wns)
		if len(out) != len(wns) {
			return false
		}
		seen := make(map[wnRef]bool)
		for _, wn := range out {
			if seen[wn] {
				return false // not a permutation
			}
			seen[wn] = true
		}
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if n.ivc(out[j]).Before(n.ivc(out[i])) {
					return false // later element happened before earlier
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: orderWNs is deterministic.
func TestQuickOrderWNsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, wns := randomWNs(r, 3+r.Intn(10), 2+r.Intn(3))
		a := n.orderWNs(wns)
		b := n.orderWNs(wns)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: dominatingWN returns a notice's clock iff it dominates all
// others.
func TestQuickDominatingWN(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, wns := randomWNs(r, 2+r.Intn(8), 2+r.Intn(3))
		dom := n.dominatingWN(wns)
		if dom == nil {
			// verify no element dominates all.
			for _, cand := range wns {
				all := true
				for _, o := range wns {
					if o != cand && !n.ivc(o).Leq(n.ivc(cand)) {
						all = false
						break
					}
				}
				if all {
					return false
				}
			}
			return true
		}
		// dom is one of the notices' clocks, not a join of several.
		if !slices.ContainsFunc(wns, func(o wnRef) bool { return n.ivc(o).Equal(dom) }) {
			return false
		}
		for _, o := range wns {
			if !n.ivc(o).Leq(dom) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// bestOwnerWN picks the highest version among owner notices only.
func TestBestOwnerWN(t *testing.T) {
	n := logNode(2)
	ps := &pageState{}
	if _, ok := n.bestOwnerWN(ps); ok {
		t.Fatalf("empty pending must yield none")
	}
	ps.pending = append(ps.pending, n.addInterval(0, vc.VC{1, 0}, wnRow{})...)
	ps.pending = append(ps.pending, n.addInterval(1, vc.VC{0, 1}, ownerRow(0, 3))...)
	ps.pending = append(ps.pending, n.addInterval(0, vc.VC{2, 0}, ownerRow(0, 5))...)
	if got, ok := n.bestOwnerWN(ps); !ok || got.version() != 5 {
		t.Fatalf("bestOwnerWN picked %+v", got)
	}
}
