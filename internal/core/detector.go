package core

import (
	"sync"
	"sync/atomic"

	"adsm/internal/mem"
	"adsm/internal/vc"
)

// Detector is protocol-independent instrumentation that measures the two
// application characteristics the paper's Table 2 reports: the fraction of
// shared pages exhibiting write-write false sharing, and the prevailing
// write granularity (diff sizes).
//
// A page is write-write falsely shared when two different processors write
// it in intervals that are concurrent under happened-before-1. Checking
// each new write against every processor's most recent write suffices:
// older writes by the same processor are ordered before its latest one.
//
// Every node notes its own accesses, concurrently on a real transport.
// noteAccess, which runs on every write, returns on a fast path when the
// page's atomically read bitmasks already hold its bits; every bitmask
// change, noteWrite and noteDiff run under mu. The adaptive meta-protocol
// reads the per-page fields under mu; Characteristics runs after the run.
type Detector struct {
	nprocs int
	pages  []detPage
	mu     sync.Mutex
}

type detPage struct {
	lastWrite []vc.VC       // per proc, VC of its most recent write interval
	accessors atomic.Uint64 // bitmask of procs that touched the page
	writers   atomic.Uint64 // bitmask of procs that wrote the page (a subset of accessors)
	fs        bool

	diffCount int64
	diffBytes int64
	maxDiff   int
}

// newDetector returns a detector with no page table yet: Cluster.Run sizes
// pages to the allocation before anything can be noted.
func newDetector(nprocs int) *Detector { return &Detector{nprocs: nprocs} }

// noteWrite records a write notice creation.
func (d *Detector) noteWrite(wn *WriteNotice) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := &d.pages[wn.Page]
	if p.lastWrite == nil {
		p.lastWrite = make([]vc.VC, d.nprocs)
	}
	proc := wn.Int.Proc
	bit := uint64(1) << uint(proc)
	p.accessors.Store(p.accessors.Load() | bit)
	p.writers.Store(p.writers.Load() | bit)
	if !p.fs {
		for q, last := range p.lastWrite {
			if q != proc && last != nil && last.Concurrent(wn.Int.VC) {
				p.fs = true
				break
			}
		}
	}
	// Store a snapshot, not the interval's own vector: vc.VC is a mutable
	// slice, and holding a reference would let a later in-place mutation
	// (Join/Tick on a vector that aliases it) retroactively corrupt the
	// concurrency check above.
	p.lastWrite[proc] = wn.Int.VC.Copy()
}

// noteAccess records that a processor touched a page. Once the page
// holds the bits the access would set — after a node's first access
// (read) or first write — it changes nothing and takes no lock.
func (d *Detector) noteAccess(pg, proc int, write bool) {
	p := &d.pages[pg]
	mask := &p.accessors
	if write {
		mask = &p.writers
	}
	bit := uint64(1) << uint(proc)
	if mask.Load()&bit != 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p.accessors.Store(p.accessors.Load() | bit)
	if write {
		p.writers.Store(p.writers.Load() | bit)
	}
}

// noteDiff records a created diff's size (write granularity).
func (d *Detector) noteDiff(pg int, diff *mem.Diff) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := &d.pages[pg]
	p.diffCount++
	p.diffBytes += int64(diff.DataBytes())
	if diff.DataBytes() > p.maxDiff {
		p.maxDiff = diff.DataBytes()
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

// Characteristics returns the Table 2 summary of the first npages pages
// (callers pass the allocated page count).
func (d *Detector) Characteristics(npages int) Characteristics {
	var c Characteristics
	var diffBytes, diffCount int64
	for i := 0; i < npages && i < len(d.pages); i++ {
		p := &d.pages[i]
		if popcount(p.accessors.Load()) >= 2 {
			c.SharedPages++
		}
		if p.writers.Load() != 0 {
			c.WrittenPages++
		}
		if p.fs {
			c.FSPages++
		}
		diffBytes += p.diffBytes
		diffCount += p.diffCount
		if p.maxDiff > c.MaxDiffBytes {
			c.MaxDiffBytes = p.maxDiff
		}
	}
	if c.WrittenPages > 0 {
		c.FSPercent = 100 * float64(c.FSPages) / float64(c.WrittenPages)
	}
	if diffCount > 0 {
		c.AvgDiffBytes = float64(diffBytes) / float64(diffCount)
	}
	c.DiffsRecorded = diffCount
	return c
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
