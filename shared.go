package adsm

import (
	"fmt"

	"adsm/internal/mem"
)

// The typed, span-oriented shared-memory API. A Shared[T] is a cluster-
// level handle onto a typed array in the shared segment: it carries no
// worker state, so the same handle works on every processor (pass it into
// the SPMD body like any other value). Element ops (At/Set) go through the
// full per-access protocol path; the
// bulk ops (ReadAt/WriteAt/Fill) and the scoped Span fast path resolve
// faults, write bookkeeping and detector notes once per page instead of
// once per element — same coherence behavior, a fraction of the host-side
// cost. See README "API" for the model and the migration table.

// Elem is the set of element types a Shared array can hold: the fixed-
// size machine words of the platform, stored little-endian in the shared
// segment.
type Elem = mem.Word

// AccessMode declares what a Span does to its window, and therefore which
// faults it takes per page. Read|Write composes: a ReadWrite span faults
// like a read-modify-write loop (read fault first, then the write fault).
type AccessMode int

const (
	Read      AccessMode = 1
	Write     AccessMode = 2
	ReadWrite AccessMode = Read | Write
)

func (m AccessMode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case ReadWrite:
		return "read-write"
	}
	return fmt.Sprintf("AccessMode(%d)", int(m))
}

// Shared is a typed array in the shared segment, created by AllocArray (or
// viewed over another array's bytes by View). The zero value is an empty array.
type Shared[T Elem] struct {
	base Addr
	n    int
}

// AllocArray reserves a zeroed shared array of n elements of T. The base
// address is 8-byte aligned, so every element is naturally aligned and no
// element straddles a page boundary. The pages are initially owned by
// processor 0, like Tmk_malloc. Must be called before Run; n must be
// positive.
func AllocArray[T Elem](cl *Cluster, n int) Shared[T] {
	if n <= 0 {
		panic(fmt.Sprintf("adsm: AllocArray(%d): element count must be positive", n))
	}
	return Shared[T]{base: cl.c.Alloc(n * mem.ElemSize[T]()), n: n}
}

// AllocArrayPageAligned is AllocArray with the first element on a page
// boundary — use it to control how the array maps onto coherence units
// (one SOR row per page, for instance).
func AllocArrayPageAligned[T Elem](cl *Cluster, n int) Shared[T] {
	if n <= 0 {
		panic(fmt.Sprintf("adsm: AllocArrayPageAligned(%d): element count must be positive", n))
	}
	return Shared[T]{base: cl.c.AllocPageAligned(n * mem.ElemSize[T]()), n: n}
}

// View interprets n elements of T at base as a Shared array — a second
// typed view of bytes another array (its Base or Addr) already reserved.
// base must be aligned to T's size.
func View[T Elem](base Addr, n int) Shared[T] {
	if base%mem.ElemSize[T]() != 0 {
		panic(fmt.Sprintf("adsm: View: base %d misaligned for %d-byte elements", base, mem.ElemSize[T]()))
	}
	if n < 0 {
		panic("adsm: View: negative element count")
	}
	return Shared[T]{base: base, n: n}
}

// Len returns the element count.
func (s Shared[T]) Len() int { return s.n }

// Base returns the byte address of element 0.
func (s Shared[T]) Base() Addr { return s.base }

// Addr returns the byte address of element i.
func (s Shared[T]) Addr(i int) Addr { return s.base + i*mem.ElemSize[T]() }

// Slice returns the sub-array [lo, hi) as a Shared handle sharing the same
// storage.
func (s Shared[T]) Slice(lo, hi int) Shared[T] {
	s.checkRange(lo, hi)
	return Shared[T]{base: s.Addr(lo), n: hi - lo}
}

// At reads element i through the protocol (a read fault if the page is
// invalid).
func (s Shared[T]) At(w *Worker, i int) T {
	s.check(i)
	es := mem.ElemSize[T]()
	b, off := w.n.Access(s.base+i*es, es, false)
	return mem.LoadElem[T](b, off)
}

// Set writes element i through the protocol (a write fault if the page is
// not writable).
func (s Shared[T]) Set(w *Worker, i int, v T) {
	s.check(i)
	es := mem.ElemSize[T]()
	b, off := w.n.Access(s.base+i*es, es, true)
	mem.StoreElem(b, off, v)
}

// UpdateLocked applies fn to element i under the named lock and returns
// the value it stored. The lock both serializes concurrent updaters and
// (by lazy release consistency) makes their updates visible, so concurrent
// UpdateLocked calls with the same lockID never lose an update — the safe
// form of the read-modify-write that a bare At/Set pair gets wrong under
// contention. All accesses to the element must use the same lock for the
// guarantee to hold. fn runs inside the critical section; it must not
// acquire locks or touch other contended shared state.
func (s Shared[T]) UpdateLocked(w *Worker, lockID, i int, fn func(T) T) T {
	s.check(i)
	w.Lock(lockID)
	v := fn(s.At(w, i))
	s.Set(w, i, v)
	w.Unlock(lockID)
	return v
}

// AddLocked adds d to element i under the named lock and returns the new
// value: UpdateLocked specialized to the counter idiom.
func (s Shared[T]) AddLocked(w *Worker, lockID, i int, d T) T {
	return s.UpdateLocked(w, lockID, i, func(v T) T { return v + d })
}

// ReadAt copies len(dst) elements starting at element i into dst. The
// range may cross any number of page boundaries; each page takes at most
// one read fault.
func (s Shared[T]) ReadAt(w *Worker, dst []T, i int) {
	s.checkRange(i, i+len(dst))
	es := mem.ElemSize[T]()
	w.n.AccessRange(s.base+i*es, len(dst)*es, es, true, false, func(rel int, b []byte) {
		chunk := dst[rel/es : rel/es+len(b)/es]
		if p := mem.Alias[T](b); p != nil {
			copy(chunk, p)
		} else {
			mem.Decode(b, chunk)
		}
	})
}

// WriteAt copies src into the array starting at element i. The range may
// cross any number of page boundaries; each page takes at most one write
// fault and one write-notice registration.
func (s Shared[T]) WriteAt(w *Worker, src []T, i int) {
	s.checkRange(i, i+len(src))
	es := mem.ElemSize[T]()
	w.n.AccessRange(s.base+i*es, len(src)*es, es, false, true, func(rel int, b []byte) {
		chunk := src[rel/es : rel/es+len(b)/es]
		if p := mem.Alias[T](b); p != nil {
			copy(p, chunk)
		} else {
			mem.Encode(b, chunk)
		}
	})
}

// Fill sets elements [i, i+n) to v with one write fault per page.
func (s Shared[T]) Fill(w *Worker, i, n int, v T) {
	s.checkRange(i, i+n)
	es := mem.ElemSize[T]()
	w.n.AccessRange(s.base+i*es, n*es, es, false, true, func(rel int, b []byte) {
		if p := mem.Alias[T](b); p != nil {
			for k := range p {
				p[k] = v
			}
			return
		}
		for off := 0; off < len(b); off += es {
			mem.StoreElem(b, off, v)
		}
	})
}

// Window names the byte range behind [lo, hi) without touching it: the
// unit of a prefetch hint. A stencil phase that is about to read boundary
// rows of several different grids passes one Window per row to
// Worker.Prefetch, and all their pages batch into a single planned
// Multicall.
func (s Shared[T]) Window(lo, hi int) Window {
	s.checkRange(lo, hi)
	es := mem.ElemSize[T]()
	return Window{addr: s.base + lo*es, size: (hi - lo) * es}
}

// Window is a prefetchable byte range of some shared array; build one
// with Shared.Window and hand any number of them to Worker.Prefetch.
type Window struct {
	addr, size int
}

// Span runs fn over the window [lo, hi) with the protocol work done once
// per page: the page's fault (per mode), the write bookkeeping and the
// detector note are resolved up front, and fn then operates on the page
// elements directly — on little-endian hosts a zero-copy view of the live
// page bytes, elsewhere a scratch copy written back after fn returns.
//
// Because a window can cross page boundaries (and pages are not
// contiguous in host memory), fn is invoked once per in-page chunk:
// i is the array index of p[0] and the chunks arrive in ascending order,
// covering [lo, hi) exactly. The slice is valid only inside fn.
//
// The mode declares the access like mprotect flags declare a mapping:
// Read windows must not be written (the bytes are the live page; an
// unnoticed mutation corrupts shared memory), Write windows may skip
// reading, ReadWrite faults like a read-modify-write loop. Writes to a
// Write or ReadWrite window are recorded at page granularity exactly as a
// per-element loop would record them — same faults, same write notices,
// same diffs — so the span path never changes protocol behavior, only the
// per-element overhead (TestSpanVsPerWordEquivalence pins this).
func (s Shared[T]) Span(w *Worker, lo, hi int, mode AccessMode, fn func(i int, p []T)) {
	s.checkRange(lo, hi)
	if mode&ReadWrite == 0 {
		panic(fmt.Sprintf("adsm: Span with mode %v (want Read, Write or ReadWrite)", mode))
	}
	es := mem.ElemSize[T]()
	read := mode&Read != 0
	write := mode&Write != 0
	var scratch []T
	w.n.AccessRange(s.base+lo*es, (hi-lo)*es, es, read, write, func(rel int, b []byte) {
		i := lo + rel/es
		if p := mem.Alias[T](b); p != nil {
			fn(i, p)
			return
		}
		// Big-endian (or misaligned) fallback: stage through a scratch
		// buffer in host order and write the bytes back for write modes.
		if cap(scratch) < len(b)/es {
			scratch = make([]T, len(b)/es)
		}
		p := scratch[:len(b)/es]
		mem.Decode(b, p)
		fn(i, p)
		if write {
			mem.Encode(b, p)
		}
	})
}

func (s Shared[T]) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("adsm: index %d out of range [0,%d)", i, s.n))
	}
}

func (s Shared[T]) checkRange(lo, hi int) {
	if lo < 0 || hi < lo || hi > s.n {
		panic(fmt.Sprintf("adsm: range [%d,%d) out of bounds [0,%d)", lo, hi, s.n))
	}
}
