package core

import (
	"math/rand"
	"reflect"
	"testing"

	"adsm/internal/mem"
)

// linearSince is the full scan intervalsSince used to be: every known
// interval above the knowledge vector, in (proc, ts) order. It is the
// oracle for the binary-search version.
func linearSince(n *Node, known []int32) []*Interval {
	var out []*Interval
	for p := range n.intervals {
		for _, iv := range n.intervals[p] {
			if iv.TS > known[p] {
				out = append(out, iv)
			}
		}
	}
	return out
}

// checkIntervalsSince compares intervalsSince against the linear filter on
// the node's current log for the two vectors real shipments use, the zero
// vector, and random ones around the log's TS range. It also asserts the
// invariant the search rests on: each per-processor log is in TS order.
// It returns how many intervals the log held.
func checkIntervalsSince(t *testing.T, n *Node, r *rand.Rand, when string) int {
	procs := n.c.params.Procs
	held := 0
	maxTS := int32(0)
	for p, ivs := range n.intervals {
		held += len(ivs)
		for i, iv := range ivs {
			if iv.Proc != p {
				t.Errorf("%s: node %d log %d holds an interval of proc %d", when, n.id, p, iv.Proc)
			}
			if i > 0 && ivs[i-1].TS > iv.TS {
				t.Errorf("%s: node %d log %d out of TS order at %d: %d then %d",
					when, n.id, p, i, ivs[i-1].TS, iv.TS)
			}
			if iv.TS > maxTS {
				maxTS = iv.TS
			}
		}
	}
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
				when, n.id, k, len(got), len(want))
		}
	}
	return held
}

// TestIntervalsSinceMatchesLinearFilter drives real runs — lock chains
// between barriers, so logs grow through grants, arrivals and releases —
// and checks the binary-search shipment against the linear filter at every
// synchronization point. MW with a tiny diff pool covers logs rebuilt after
// barrier-time GC, HLRC covers logs truncated in place at every barrier
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
		{"HLRC", hlrcProto, 0, false},
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
						if c.GCRuns() > 0 || tc.proto == hlrcProto && n.barEpoch > 0 {
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
				if (tc.wantGC || tc.proto == hlrcProto) && afterDrop[id] == 0 {
					t.Errorf("node %d never checked a log rebuilt after GC or truncation", id)
				}
			}
		})
	}
}
