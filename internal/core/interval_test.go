package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adsm/internal/mem"
)

// linearSince is the full scan intervalsSince used to be: every
// published interval above the knowledge vector, in (proc, ts) order,
// copied row by row. It is the oracle for the sized, sliced version.
func linearSince(n *Node, known []int32) ivBatch {
	var b ivBatch
	for p := range n.logs {
		lg := &n.logs[p]
		for _, r := range lg.rows {
			if r.ts > known[p] && r.ts <= n.knownTS[p] {
				b.Heads = append(b.Heads, ivHead{proc: int32(p), ts: r.ts, nwn: r.nwn})
				b.VCs = append(b.VCs, lg.vc(r, n.c.params.Procs)...)
				b.WNs = append(b.WNs, lg.wns[r.wn:r.wn+r.nwn]...)
			}
		}
	}
	return b
}

// checkIntervalsSince compares intervalsSince against the linear filter on
// the node's current logs for the two vectors real shipments use, the zero
// vector, and random ones around the logs' TS range. It also asserts the
// invariants the slicing rests on: each per-processor log is contiguous in
// TS and ends at knownTS, and every ref a page holds resolves. It returns
// how many intervals the logs held.
func checkIntervalsSince(t *testing.T, n *Node, r *rand.Rand, when string) int {
	procs := n.c.params.Procs
	held := 0
	maxTS := int32(0)
	for p := range n.logs {
		lg := &n.logs[p]
		held += len(lg.rows)
		for i, row := range lg.rows {
			if row.ts != lg.base+int32(i) {
				t.Errorf("%s: node %d log %d not contiguous at %d: ts %d from base %d", when, n.id, p, i, row.ts, lg.base)
			}
		}
		if lg.end() != n.knownTS[p] {
			t.Errorf("%s: node %d log %d ends at %d, knownTS %d", when, n.id, p, lg.end(), n.knownTS[p])
		}
		maxTS = max(maxTS, lg.end())
	}
	n.checkRefs()
	vectors := [][]int32{
		make([]int32, procs),
		append([]int32(nil), n.knownTS...),
		append([]int32(nil), n.lastGlobal...),
	}
	for i := 0; i < 24; i++ {
		k := make([]int32, procs)
		for p := range k {
			k[p] = int32(r.Intn(int(maxTS) + 3)) // 0 .. maxTS+2: below, inside and above the log
		}
		vectors = append(vectors, k)
	}
	for _, k := range vectors {
		got, want := n.intervalsSince(k), linearSince(n, k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: node %d intervalsSince(%v) returned %d intervals, linear filter %d",
				when, n.id, k, len(got.Heads), len(want.Heads))
		}
	}
	return held
}

// TestIntervalsSinceMatchesLinearFilter drives real runs — lock chains
// between barriers, so logs grow through grants, arrivals and releases —
// and checks the sliced shipment against the linear filter at every
// synchronization point. MW with a tiny diff pool covers logs cut at
// barrier-time GC, HLRC covers logs cut in place at every barrier
// release, WFS covers owner notices torn out mid-interval.
func TestIntervalsSinceMatchesLinearFilter(t *testing.T) {
	cases := []struct {
		name   string
		proto  Protocol
		limit  int64
		wantGC bool
	}{
		{"MW+GC", MW, 6 * 1024, true},
		{"MW", MW, 0, false},
		{"WFS", WFS, 0, false},
		{"HLRC", HLRC, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const procs, pages, rounds = 4, 4, 6
			p := testParams(procs, tc.proto)
			if tc.limit > 0 {
				p.DiffSpaceLimit = tc.limit
			}
			c := New(p)
			base := c.AllocPageAligned(pages * mem.PageSize)
			nonEmpty := make([]int, procs) // checks that saw a non-empty log, per node
			afterDrop := make([]int, procs)
			mustRun(t, c, func(n *Node) {
				r := rand.New(rand.NewSource(int64(17 + n.ID())))
				check := func(when string) {
					if checkIntervalsSince(t, n, r, when) > 0 {
						nonEmpty[n.ID()]++
						if c.GCRuns() > 0 || tc.proto == HLRC && n.barEpoch > 0 {
							afterDrop[n.ID()]++
						}
					}
				}
				for round := 1; round <= rounds; round++ {
					// Lock phase: a migratory counter per page plus a private
					// slot, so grants carry other processors' intervals.
					for k := 0; k < 3; k++ {
						pg := (n.ID() + k) % pages
						n.Acquire(pg)
						a := base + pg*mem.PageSize
						n.WriteU64(a, n.ReadU64(a)+1)
						n.WriteU64(a+8*(1+n.ID()), uint64(round*100+k))
						n.Release(pg)
						check("after release")
					}
					// Barrier phase: bulk writes feed the diff pool (GC).
					for pg := 0; pg < pages; pg++ {
						q := base + pg*mem.PageSize + (1+n.ID())*mem.PageSize/8
						for i := 0; i < mem.PageSize/8/8; i++ {
							n.WriteU64(q+8*i, uint64(round*1000+i))
						}
					}
					n.Barrier()
					check("after barrier")
				}
				n.Barrier()
				for pg := 0; pg < pages; pg++ {
					if got := n.ReadU64(base + pg*mem.PageSize); got != uint64(3*rounds) {
						t.Errorf("node %d: counter %d = %d, want %d", n.ID(), pg, got, 3*rounds)
					}
				}
			})
			if tc.wantGC && c.GCRuns() == 0 {
				t.Errorf("expected at least one GC run")
			}
			for id := range nonEmpty {
				if nonEmpty[id] == 0 {
					t.Errorf("node %d never checked a non-empty log", id)
				}
				if (tc.wantGC || tc.proto == HLRC) && afterDrop[id] == 0 {
					t.Errorf("node %d never checked a log rebuilt after GC or truncation", id)
				}
			}
		})
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestLogRowsHoldNoPointers: the interval and notice rows, the refs pages
// hold and a message's interval heads are plain data, so the logs' slabs
// and the pages' ref lists cost the garbage collector no scan, and the
// decoder no object per interval.
func TestLogRowsHoldNoPointers(t *testing.T) {
	for _, v := range []any{ivRow{}, wnRow{}, wnRef{}, ivHead{}, wnKey{}} {
		if typ := reflect.TypeOf(v); hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	// The logs and batches are slabs of those rows and of int32 clocks.
	for _, typ := range []reflect.Type{reflect.TypeOf(writerLog{}), reflect.TypeOf(ivBatch{})} {
		for i := range typ.NumField() {
			if f := typ.Field(i); f.Type.Kind() == reflect.Slice && hasPointers(f.Type.Elem()) {
				t.Errorf("%v.%s is a slab of %v, which holds pointers", typ, f.Name, f.Type.Elem())
			}
		}
	}
}

// TestSimNodesShareNoLogs: on the simulator a message reaches its
// receiver as the sender's value, and the intervals it carries are copied
// into the receiver's logs: after a run no two nodes' logs share a slab.
func TestSimNodesShareNoLogs(t *testing.T) {
	const procs = 3
	c := New(testParams(procs, MW))
	base := c.AllocPageAligned(procs * mem.PageSize)
	mustRun(t, c, func(n *Node) {
		for r := 0; r < 4; r++ {
			n.Acquire(0)
			n.WriteU64(base+8*n.ID(), uint64(r))
			n.Release(0)
			n.WriteU64(base+(1+n.ID()%2)*mem.PageSize+8*n.ID(), uint64(r))
		}
		n.Barrier()
	})
	owner := make(map[*ivRow]int)
	held := 0
	for _, n := range c.nodes {
		for p := range n.logs {
			lg := &n.logs[p]
			if len(lg.rows) == 0 {
				continue
			}
			held++
			if other, ok := owner[&lg.rows[:1][0]]; ok {
				t.Errorf("nodes %d and %d share writer %d's log", other, n.id, p)
			}
			owner[&lg.rows[:1][0]] = n.id
		}
	}
	if held < procs {
		t.Fatalf("only %d non-empty logs after the run", held)
	}
}

// TestGCCutsAtItsSnapshot: garbage collection cuts the logs in its drop
// phase at the knowledge it took before the mini-barrier, so every log a
// collection leaves starts at a row some page still names. Under MW that
// cut is the only one. Under adaptive, with HLRC pages beside the
// collected ones, the mini-barrier's release runs HLRC's own cut too, and
// the drop phase must still cut at its own snapshot.
func TestGCCutsAtItsSnapshot(t *testing.T) {
	for _, tc := range []struct {
		proto Protocol
		hlrc  bool // page 0 is an HLRC page when the collections run
	}{{MW, false}, {Adaptive, true}} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			const procs, rounds = 4, 8
			p := testParams(procs, tc.proto)
			p.Cost = CostProfile{HLRCWriters: 3}
			p.DiffSpaceLimit = 2 * 1024
			c := New(p)
			base := c.AllocPageAligned(3 * mem.PageSize)
			checked := 0 // collections checked (sim: one body runs at a time)
			mustRun(t, c, func(n *Node) {
				for r := 1; r <= rounds; r++ {
					// Page 0 has three writers an epoch: under adaptive it
					// moves to HLRC. Page 1 has two, which write it
					// concurrently: it stays MW. Page 2 has one, whose
					// twin no validation diffs under MW: the drop phase
					// discards it, and only then may its interval go.
					if n.ID() < 3 {
						n.WriteU64(base+8*n.ID(), uint64(r))
					}
					if n.ID() == 1 || n.ID() == 2 {
						n.WriteU64(base+mem.PageSize+8*n.ID(), uint64(r))
					}
					if n.ID() == 3 {
						n.WriteU64(base+2*mem.PageSize, uint64(r))
					}
					gcs := c.GCRuns()
					n.Barrier()
					// Node 0, the barrier manager, may ingest a peer's next
					// arrival before its drop phase: its logs can hold rows
					// above the snapshot that no page names yet.
					if n.ID() == 0 || c.GCRuns() == gcs || (n.pages[0].proto == HLRC) != tc.hlrc {
						continue
					}
					checked++
					for w := range n.logs {
						lg := &n.logs[w]
						if len(lg.rows) > 0 && !pageNames(n, wnRef{proc: int32(w), ts: lg.base}) {
							t.Errorf("round %d: node %d keeps log %d from %d to %d after a collection; no page names %d",
								r, n.ID(), w, lg.base, lg.end(), lg.base)
						}
					}
				}
			})
			if checked == 0 {
				t.Fatal("no collection was checked")
			}
		})
	}
}

// pageNames reports whether some page of n holds a ref into the interval
// r names (its index is ignored).
func pageNames(n *Node, r wnRef) bool {
	in := func(o wnRef) bool { return o.proc == r.proc && o.ts == r.ts }
	for _, ps := range n.pages {
		if in(ps.undiffed) || in(ps.myLastWN) || slices.ContainsFunc(ps.pending, in) || slices.ContainsFunc(ps.knownWNs, in) {
			return true
		}
	}
	return false
}
