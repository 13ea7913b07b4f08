package core

import (
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
// The Table 2 aggregates are maintained incrementally: each note* call
// updates the running sums at the state transition it causes (a page
// gaining its second accessor, its first writer, its false-sharing bit),
// so Characteristics is O(1) instead of a scan over every page — the
// adaptive meta-protocol and the sweep harness read it per-run.
type Detector struct {
	nprocs int
	pages  []detPage

	sharedPages  int   // pages with >= 2 accessors
	writtenPages int   // pages with any writer
	fsPages      int   // pages with the false-sharing bit set
	diffCount    int64 // diffs recorded, all pages
	diffBytes    int64 // their cumulative size
	maxDiff      int   // largest single diff
}

type detPage struct {
	lastWrite []vc.VC // per proc, VC of its most recent write interval
	accessors uint64  // bitmask of procs that touched the page
	writers   uint64  // bitmask of procs that wrote the page
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
	p := &d.pages[wn.Page]
	if p.lastWrite == nil {
		p.lastWrite = make([]vc.VC, d.nprocs)
	}
	proc := wn.Int.Proc
	d.markWriter(p, proc)
	d.markAccessor(p, proc)
	if !p.fs {
		for q, last := range p.lastWrite {
			if q == proc || last == nil {
				continue
			}
			if last.Concurrent(wn.Int.VC) {
				p.fs = true
				d.fsPages++
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

// noteAccess records that a processor touched a page.
func (d *Detector) noteAccess(pg, proc int, write bool) {
	p := &d.pages[pg]
	d.markAccessor(p, proc)
	if write {
		d.markWriter(p, proc)
	}
}

// markAccessor sets proc's accessor bit, bumping the shared-page count
// when the page gains its second accessor.
func (d *Detector) markAccessor(p *detPage, proc int) {
	old := p.accessors
	p.accessors = old | 1<<uint(proc)
	if p.accessors != old && old != 0 && old&(old-1) == 0 {
		d.sharedPages++
	}
}

// markWriter sets proc's writer bit, bumping the written-page count when
// the page gains its first writer.
func (d *Detector) markWriter(p *detPage, proc int) {
	if p.writers == 0 {
		d.writtenPages++
	}
	p.writers |= 1 << uint(proc)
}

// noteDiff records a created diff's size (write granularity).
func (d *Detector) noteDiff(pg int, diff *mem.Diff) {
	p := &d.pages[pg]
	p.diffCount++
	p.diffBytes += int64(diff.DataBytes())
	if diff.DataBytes() > p.maxDiff {
		p.maxDiff = diff.DataBytes()
	}
	d.diffCount++
	d.diffBytes += int64(diff.DataBytes())
	if diff.DataBytes() > d.maxDiff {
		d.maxDiff = diff.DataBytes()
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

// Characteristics returns the Table 2 summary from the incrementally
// maintained aggregates — O(1), no page scan. Instrumented pages always
// lie inside the allocated range, so the npages bound (kept for API
// stability; callers pass the allocated page count) never excludes a
// counted page.
func (d *Detector) Characteristics(npages int) Characteristics {
	c := Characteristics{
		SharedPages:   d.sharedPages,
		WrittenPages:  d.writtenPages,
		FSPages:       d.fsPages,
		MaxDiffBytes:  d.maxDiff,
		DiffsRecorded: d.diffCount,
	}
	if c.WrittenPages > 0 {
		c.FSPercent = 100 * float64(c.FSPages) / float64(c.WrittenPages)
	}
	if d.diffCount > 0 {
		c.AvgDiffBytes = float64(d.diffBytes) / float64(d.diffCount)
	}
	return c
}

// ScanCharacteristics recomputes the Table 2 summary by scanning the
// first n pages — the original O(npages) path, kept as the verification
// oracle for the incremental aggregates (see TestDetectorIncremental).
func (d *Detector) ScanCharacteristics(npages int) Characteristics {
	var c Characteristics
	var diffBytes, diffCount int64
	for i := 0; i < npages && i < len(d.pages); i++ {
		p := &d.pages[i]
		if popcount(p.accessors) >= 2 {
			c.SharedPages++
		}
		if p.writers != 0 {
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
