// Package mem implements the shared-memory page substrate used by all the
// DSM protocols: fixed-size pages, twins (pristine copies made at the first
// write of an interval), and run-length-encoded diffs, the TreadMarks record
// of the modifications made to a page.
package mem

import (
	"bytes"
	"encoding/binary"
)

// Page geometry. The paper's platform used 4096-byte pages.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	// WordSize is the comparison granularity when diffing (TreadMarks
	// compares 32-bit words).
	WordSize = 4
)

// PageOf returns the page number containing byte address addr.
func PageOf(addr int) int { return addr >> PageShift }

// PageBase returns the first byte address of page p.
func PageBase(p int) int { return p << PageShift }

// NewPage allocates a zeroed page.
func NewPage() []byte { return make([]byte, PageSize) }

// Twin returns a pristine copy of the page (the "twin" made on the first
// write to a write-protected page).
func Twin(page []byte) []byte {
	t := make([]byte, len(page))
	copy(t, page)
	return t
}

// Run is one modified extent within a page.
type Run struct {
	Off  int
	Data []byte
}

// Diff is a run-length encoded record of the modifications made to a page,
// obtained by comparing the twin with the current contents.
type Diff struct {
	Page int
	Runs []Run

	// data holds the runs' bytes back to back when they were cut from one
	// buffer in order (MakeDiff, Attach, Detach); see Data.
	data []byte
}

// MakeDiff compares twin and cur word by word and returns the run-length
// encoded modifications. Returns a Diff with no runs when the copies are
// identical. One scan collects the runs' bounds, so the runs are cut from a
// single buffer of exactly their size: three allocations at any density.
// Each run is capped at its own length, so appending to one never reaches
// into the next.
func MakeDiff(page int, twin, cur []byte) *Diff {
	if len(twin) != len(cur) {
		panic("mem: twin/page size mismatch")
	}
	// Room for every run a page can have, on the stack; more spills to the heap.
	bounds := make([]int32, 0, PageSize/WordSize+2)
	n, size := len(cur), 0
	for i := 0; ; {
		// Through an unchanged stretch by blocks, then two words a load,
		// then word by word to the first that differs.
		for i+256 <= n && bytes.Equal(twin[i:i+256], cur[i:i+256]) {
			i += 256
		}
		for i+8 <= n && LoadUint64(twin, i) == LoadUint64(cur, i) {
			i += 8
		}
		for i < n && sameWord(twin, cur, i) {
			i += WordSize
		}
		if i >= n {
			break
		}
		start := i
		// Likewise through the run, while both words of a load differ.
		for i+8 <= n {
			x := LoadUint64(twin, i) ^ LoadUint64(cur, i)
			if uint32(x) == 0 || x>>32 == 0 {
				break
			}
			i += 8
		}
		for i < n && !sameWord(twin, cur, i) {
			i += WordSize
		}
		end := min(i, n) // the page's last word may be a partial one
		bounds = append(bounds, int32(start), int32(end))
		size += end - start
	}
	d := &Diff{Page: page}
	if size == 0 {
		return d
	}
	d.Runs = make([]Run, 0, len(bounds)/2)
	buf := make([]byte, 0, size)
	for k := 0; k < len(bounds); k += 2 {
		at := len(buf)
		buf = append(buf, cur[bounds[k]:bounds[k+1]]...)
		d.Runs = append(d.Runs, Run{Off: int(bounds[k]), Data: buf[at:len(buf):len(buf)]})
	}
	d.data = buf
	return d
}

// sameWord reports whether a and b hold the same word at off; the word is
// cut short where the slices end.
func sameWord(a, b []byte, off int) bool {
	if off+WordSize > len(a) {
		return bytes.Equal(a[off:], b[off:])
	}
	return LoadUint32(a, off) == LoadUint32(b, off)
}

// Apply writes the diff's runs into dst (the receiver's copy of the page).
func (d *Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
	}
}

// Detach copies the run payloads into one buffer of exactly their size,
// so the diff no longer keeps alive whatever they were sliced from (a
// received frame's body). Runs that lie back to back (Data) are copied in
// one piece, so a diff of many short runs costs one copy, not one a run.
func (d *Diff) Detach() {
	n := d.DataBytes()
	if n == 0 {
		return
	}
	buf := make([]byte, 0, n)
	if data, ok := d.Data(); ok {
		buf = append(buf, data...)
	} else {
		for _, r := range d.Runs {
			buf = append(buf, r.Data...)
		}
	}
	d.Attach(buf)
}

// Attach points the runs, whose lengths are already set, at consecutive
// stretches of data in order, each capped at its own length, and keeps
// data as their joined form: a decoder attaches the run bytes that follow
// a diff's run headers in a frame. len(data) must equal DataBytes.
func (d *Diff) Attach(data []byte) {
	if len(data) != d.DataBytes() {
		panic("mem: attached data does not match the run lengths")
	}
	at := 0
	for i := range d.Runs {
		if n := len(d.Runs[i].Data); n > 0 {
			d.Runs[i].Data = data[at : at+n : at+n]
			at += n
		}
	}
	d.data = data
}

// Data returns the runs' bytes as one slice when they lie back to back,
// in order, in the buffer they were cut from: what a vectored write can
// send as one piece. It checks that each run still begins at the element
// of that buffer after the previous run's end (comparing element
// addresses, so runs replaced since cannot pass), and reports false
// otherwise.
func (d *Diff) Data() ([]byte, bool) {
	at := 0
	for _, r := range d.Runs {
		if len(r.Data) == 0 {
			continue
		}
		if at+len(r.Data) > len(d.data) || &d.data[at] != &r.Data[0] {
			return nil, false
		}
		at += len(r.Data)
	}
	return d.data, at == len(d.data)
}

// DataBytes returns the number of modified bytes carried by the diff.
func (d *Diff) DataBytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// EncodedSize returns the exact wire size of the diff under the binary
// frame format: uvarint page id and run count, then per run a uvarint
// (offset, length) header plus the data bytes — TreadMarks' runlength
// encoding with varint headers.
func (d *Diff) EncodedSize() int {
	n := uvarintLen(uint64(d.Page)) + uvarintLen(uint64(len(d.Runs)))
	for _, r := range d.Runs {
		n += uvarintLen(uint64(r.Off)) + uvarintLen(uint64(len(r.Data))) + len(r.Data)
	}
	return n
}

// uvarintLen is the LEB128 length of v (kept local so mem stays a leaf
// package; must agree with transport.UvarintLen).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Accessors for typed shared-memory access. All multi-byte values use
// little-endian layout within the page.

// LoadUint32 reads a 32-bit value at byte offset off within page bytes.
func LoadUint32(page []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(page[off:])
}

// StoreUint32 writes a 32-bit value at byte offset off.
func StoreUint32(page []byte, off int, v uint32) {
	binary.LittleEndian.PutUint32(page[off:], v)
}

// LoadUint64 reads a 64-bit value at byte offset off.
func LoadUint64(page []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(page[off:])
}

// StoreUint64 writes a 64-bit value at byte offset off.
func StoreUint64(page []byte, off int, v uint64) {
	binary.LittleEndian.PutUint64(page[off:], v)
}
