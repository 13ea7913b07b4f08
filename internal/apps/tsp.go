package apps

import (
	"fmt"
	"math/rand"
	"time"

	"adsm"
)

// TSP solves the travelling salesman problem with branch and bound. A
// shared queue of partial tours (expanded to a fixed depth) is consumed
// under a lock; the best tour length is a shared word updated under a
// second lock. All shared writes are a few words (Table 2: "small"
// granularity), so whole-page ownership transfers (SW, WFS) move far more
// data than the small diffs MW and WFS+WG send.
type TSP struct {
	cities int
	depth  int
	dist   [][]int64

	nodeCost time.Duration

	best   adsm.Shared[int64] // best tour length (1 word, lock 1)
	qhead  adsm.Shared[int64] // next queue entry (1 word, lock 0)
	qcount adsm.Shared[int64]
	qbase  adsm.Shared[int64] // entries: depth city indices each
	qcap   int

	result float64
}

// NewTSP builds the TSP instance (quick: 9 cities; full: 11 cities — the
// paper used 19 on real hardware; the search pattern is identical).
func NewTSP(quick bool) *TSP {
	t := &TSP{cities: 11, depth: 3, nodeCost: 1500 * time.Nanosecond}
	if quick {
		t.cities = 9
	}
	rng := rand.New(rand.NewSource(424243))
	t.dist = make([][]int64, t.cities)
	for i := range t.dist {
		t.dist[i] = make([]int64, t.cities)
	}
	for i := 0; i < t.cities; i++ {
		for j := i + 1; j < t.cities; j++ {
			d := int64(10 + rng.Intn(90))
			t.dist[i][j], t.dist[j][i] = d, d
		}
	}
	return t
}

func (t *TSP) Name() string { return "TSP" }
func (t *TSP) Sync() string { return "l" }
func (t *TSP) DataSet() string {
	return fmt.Sprintf("%d cities, queue depth %d", t.cities, t.depth)
}
func (t *TSP) Result() float64 { return t.result }

// Setup allocates the bound, queue indices and the tour queue.
func (t *TSP) Setup(cl *adsm.Cluster) {
	t.qcap = 1
	for i := 0; i < t.depth-1; i++ {
		t.qcap *= t.cities - 1 - i
	}
	t.best = adsm.AllocArray[int64](cl, 1)
	t.qhead = adsm.AllocArray[int64](cl, 1)
	t.qcount = adsm.AllocArray[int64](cl, 1)
	t.qbase = adsm.AllocArray[int64](cl, t.qcap*t.depth)
}

// Body generates the prefix queue on processor 0 and then consumes it.
func (t *TSP) Body(w *adsm.Worker) {
	if w.ID() == 0 {
		t.best.Set(w, 0, 1<<40)
		count := 0
		prefix := []int{0}
		entry := make([]int64, t.depth)
		var gen func([]int)
		gen = func(p []int) {
			if len(p) == t.depth {
				for i, c := range p {
					entry[i] = int64(c)
				}
				t.qbase.WriteAt(w, entry, count*t.depth)
				count++
				return
			}
			for c := 1; c < t.cities; c++ {
				used := false
				for _, u := range p {
					if u == c {
						used = true
						break
					}
				}
				if !used {
					gen(append(p, c))
				}
			}
		}
		gen(prefix)
		t.qcount.Set(w, 0, int64(count))
		t.qhead.Set(w, 0, 0)
	}
	w.Barrier()

	// Pop batches of partial tours (small migratory writes to the head
	// word, like TreadMarks' TSP work queue).
	const batch = 4
	prefix := make([]int, t.depth)
	entry := make([]int64, t.depth)
	for {
		w.Lock(0)
		head := t.qhead.At(w, 0)
		n := t.qcount.At(w, 0)
		take := int64(0)
		if head < n {
			take = n - head
			if take > batch {
				take = batch
			}
			t.qhead.Set(w, 0, head+take)
		}
		w.Unlock(0)
		if take == 0 {
			break
		}
		for e := int64(0); e < take; e++ {
			t.qbase.ReadAt(w, entry, (int(head)+int(e))*t.depth)
			for i := 0; i < t.depth; i++ {
				prefix[i] = int(entry[i])
			}

			// Depth-first search below the prefix, pruning against the
			// (possibly stale) shared bound: stale bounds only prune
			// less, so the optimum is still found.
			bound := t.best.At(w, 0)
			tourLen, explored := t.dfs(prefix, bound)
			w.Compute(t.nodeCost * time.Duration(explored))

			if tourLen > 0 {
				w.Lock(1)
				if cur := t.best.At(w, 0); tourLen < cur {
					t.best.Set(w, 0, tourLen)
				}
				w.Unlock(1)
			}
		}
	}

	w.Barrier()
	if w.ID() == 0 {
		t.result = float64(t.best.At(w, 0))
	}
	w.Barrier()
}

// dfs explores all completions of the prefix, returning the best complete
// tour found (0 if none beat the bound) and the number of nodes explored.
func (t *TSP) dfs(prefix []int, bound int64) (best int64, explored int) {
	s := tspSearch{dist: t.dist, cities: t.cities, bound: bound}
	var length int64
	for i, c := range prefix {
		s.used |= 1 << c
		if i > 0 {
			length += t.dist[prefix[i-1]][c]
		}
	}
	s.rec(prefix[len(prefix)-1], len(prefix), length)
	return s.best, s.explored
}

// tspSearch is one depth-first search below a prefix: the visited cities
// as a bit mask (NewTSP builds at most 11), the bound it prunes against,
// and what it found.
type tspSearch struct {
	dist     [][]int64
	cities   int
	used     uint64
	bound    int64
	best     int64
	explored int
}

// rec extends a path of depth cities ending at last, in city order.
func (s *tspSearch) rec(last, depth int, length int64) {
	s.explored++
	if length >= s.bound {
		return
	}
	if depth == s.cities {
		if total := length + s.dist[last][0]; total < s.bound {
			s.bound, s.best = total, total
		}
		return
	}
	row := s.dist[last]
	for c := 1; c < s.cities; c++ {
		if s.used&(1<<c) != 0 {
			continue
		}
		s.used |= 1 << c
		s.rec(c, depth+1, length+row[c])
		s.used &^= 1 << c
	}
}
