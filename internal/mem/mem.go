// Package mem implements the shared-memory page substrate used by all the
// DSM protocols: fixed-size pages, twins (pristine copies made at the first
// write of an interval), and run-length-encoded diffs, the TreadMarks record
// of the modifications made to a page.
//
// A diff is its page number, a run table and a data buffer, none of which
// holds a pointer per run: the table packs each run's offset and length
// as the wire encodes them, and the buffer holds the runs' bytes back to
// back.
package mem

import (
	"bytes"
	"encoding/binary"
	"iter"
	"math"
	"math/bits"
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

// Diff is a run-length encoded record of the modifications made to a page,
// obtained by comparing the twin with the current contents.
//
// A diff holds its runs in two byte slices: the run table, which gives
// each run's offset and length as a pair of uvarints, exactly as the wire
// carries them (Table), and the runs' bytes back to back in run order
// (Data). Neither holds a pointer the collector must trace per run: a
// simulated matrix builds millions of diffs, and a header per run, each
// pointing into the data, cost more bytes than the data and a traced
// pointer apiece. The table and the data sizes are known, so EncodedSize
// and DataBytes are O(1).
//
// A table of up to len(short) bytes lives inside the Diff, so the data
// buffer of a diff with few runs is exactly its size: a whole-page diff's
// 4,096 data bytes and 3-byte table in one buffer would round up to Go's
// 4,864-byte size class. The array fills the Diff's own 80-byte class.
type Diff struct {
	Page int

	n, size int32    // run count; the run lengths' sum
	runs    []byte   // run table: per run a uvarint offset, then a uvarint length
	data    []byte   // the runs' bytes back to back; nil until attached
	short   [16]byte // backs runs when the table fits
}

// blockSize is the stretch MakeDiff compares at once: 64 words, one bit
// each in a change mask.
const blockSize = 64 * WordSize

// skipSize is the stretch MakeDiff skips at once where no run is open.
const skipSize = 4 * blockSize

// MakeDiff compares twin and cur word by word and returns the run-length
// encoded modifications. Returns a Diff with no runs when the copies are
// identical. The scan goes a block of 64 words at a time: a clean block is
// skipped with one comparison, and a dirty one becomes a mask with one bit
// per changed word, from which bit operations read where runs start and
// end. Each run's bytes and table entry go to scratch space on the stack
// as it is found, and the diff is cut from one copy of that: two
// allocations at any density.
func MakeDiff(page int, twin, cur []byte) *Diff {
	if len(twin) != len(cur) {
		panic("mem: twin/page size mismatch")
	}
	// The scratch holds the data from its front and the table from n on,
	// room for the most a page can have; a longer input's spills to the
	// heap. A table entry takes at most two uvarints of n, and there are
	// at most n/8+1 runs.
	n := len(cur)
	var stack struct {
		_ [0]uint64 // word-aligned: zeroing it goes a word at a time
		b [PageSize + (PageSize/8+1)*4]byte
	}
	scratch := stack.b[:]
	if need := n + (n/8+1)*2*uvarintLen(uint64(n)); need > len(scratch) {
		scratch = make([]byte, need)
	}
	size, t, runs := 0, n, 0
	open := -1 // the start of the run the scan is in, or -1
	for base := 0; base < n || open >= 0; base += blockSize {
		var m uint64 // past the end, every word counts as clean
		if base >= n {
		} else if open < 0 && base%skipSize == 0 && base+skipSize <= n && bytes.Equal(twin[base:base+skipSize], cur[base:base+skipSize]) {
			base += skipSize - blockSize // a clean stretch of four blocks
			continue
		} else if end := base + blockSize; end > n {
			m = tailMask(twin[base:], cur[base:])
		} else if open >= 0 || !bytes.Equal(twin[base:end], cur[base:end]) {
			m = blockMask(twin[base:end], cur[base:end], open >= 0)
		} else {
			continue // clean, and no run to close
		}
		// A run starts at a changed word after a clean one and ends at a
		// clean word after a changed one; a run open at the block's start
		// counts as a changed word before it.
		var carry uint64
		if open >= 0 {
			carry = 1
		}
		starts, ends := m&^(m<<1|carry), ^m&(m<<1|carry)
		for ; ends != 0; ends &= ends - 1 {
			if open < 0 {
				open = base + bits.TrailingZeros64(starts)*WordSize
				starts &= starts - 1
			}
			s, e := open, min(base+bits.TrailingZeros64(ends)*WordSize, n)
			t += putUvarint(scratch[t:], uint64(s))
			t += putUvarint(scratch[t:], uint64(e-s))
			if e-s == WordSize { // a lone word: no call to copy
				StoreUint32(scratch, size, LoadUint32(cur, s))
			} else {
				copy(scratch[size:], cur[s:e])
			}
			size += e - s
			runs++
			open = -1
		}
		if starts != 0 { // a run goes on into the next block
			open = base + bits.TrailingZeros64(starts)*WordSize
		}
	}
	d := &Diff{Page: page, n: int32(runs), size: int32(size)}
	if runs == 0 {
		return d
	}
	if hdr := t - n; hdr <= len(d.short) {
		d.runs = d.short[:copy(d.short[:], scratch[n:t]):hdr]
		src := scratch[:size]
		buf := make([]byte, len(src))
		copy(buf, src)
		d.data = buf
		return d
	}
	// The table moves up behind the data, which go first so that they
	// start as aligned as the buffer does; the one copy to the heap then
	// needs no zeroing.
	hdr := copy(scratch[size:], scratch[n:t])
	src := scratch[:size+hdr]
	buf := make([]byte, len(src))
	copy(buf, src)
	d.data, d.runs = buf[:size:size], buf[size:size+hdr:size+hdr]
	return d
}

// putUvarint writes v to the front of b as a uvarint and returns its
// length; a run's offset and length take one or two bytes in a page.
func putUvarint(b []byte, v uint64) int {
	if v < 1<<7 {
		b[0] = byte(v)
		return 1
	}
	if v < 1<<14 {
		b[0], b[1] = byte(v)|0x80, byte(v>>7)
		return 2
	}
	return binary.PutUvarint(b, v)
}

// blockMask returns one bit per word of a 64-word block, set where twin and
// cur differ. Inside an open run it first tries the block as a whole-page
// run's, changed throughout. Otherwise it skips clean quarters with one
// comparison each, and in a dirty one each 8-byte load's XOR gives two
// bits, set without a branch.
func blockMask(twin, cur []byte, open bool) uint64 {
	twin, cur = twin[:blockSize], cur[:blockSize]
	if open && allChanged(twin, cur) {
		return ^uint64(0) // a block inside a whole-page run
	}
	var m uint64
	for q := 0; q < blockSize; q += blockSize / 4 {
		if bytes.Equal(twin[q:q+blockSize/4], cur[q:q+blockSize/4]) {
			continue
		}
		for i := q; i < q+blockSize/4; i += 8 {
			x := LoadUint64(twin, i) ^ LoadUint64(cur, i)
			m |= (nonzero(uint32(x)) | nonzero(uint32(x>>32))<<1) << (i / WordSize)
		}
	}
	return m
}

// allChanged reports whether every word of the block differs, stopping at
// the first load that holds a clean one.
func allChanged(twin, cur []byte) bool {
	for i := 0; i < blockSize; i += 8 {
		if x := LoadUint64(twin, i) ^ LoadUint64(cur, i); uint32(x) == 0 || x>>32 == 0 {
			return false
		}
	}
	return true
}

// nonzero is 1 if v is, 0 otherwise.
func nonzero(v uint32) uint64 { return (uint64(v) + 0xffffffff) >> 32 }

// tailMask is blockMask for the short stretch at the end of a length that
// is not a multiple of the block, whose last word may be a partial one.
func tailMask(twin, cur []byte) uint64 {
	var m uint64
	for off := 0; off < len(cur); off += WordSize {
		if !sameWord(twin, cur, off) {
			m |= 1 << (off / WordSize)
		}
	}
	return m
}

// sameWord reports whether a and b hold the same word at off; the word is
// cut short where the slices end.
func sameWord(a, b []byte, off int) bool {
	if off+WordSize > len(a) {
		return bytes.Equal(a[off:], b[off:])
	}
	return LoadUint32(a, off) == LoadUint32(b, off)
}

// ReadDiff reads the run table of a diff of count runs from the front of
// b, laid out as Table gives it, and returns the diff and the table's
// length in b. A short table is copied into the Diff, as MakeDiff places
// it; a longer one stays in b. The data are still to be attached
// (Attach). It reports false, with an empty diff, when the table is cut
// short or a run leaves the page, which Apply would otherwise panic on or
// silently truncate.
func ReadDiff(page, count int, b []byte) (*Diff, int, bool) {
	at, size := 0, 0
	for range count {
		off, k := binary.Uvarint(b[at:])
		if k <= 0 {
			return &Diff{Page: page}, 0, false
		}
		n, l := binary.Uvarint(b[at+k:])
		if l <= 0 || off > PageSize || n > PageSize-off || size > math.MaxInt32-PageSize {
			return &Diff{Page: page}, 0, false
		}
		at += k + l
		size += int(n)
	}
	d := &Diff{Page: page, n: int32(count), size: int32(size)}
	if at > len(d.short) {
		d.runs = b[:at:at]
	} else if at > 0 {
		d.runs = d.short[:copy(d.short[:], b[:at]):at]
	}
	return d, at, true
}

// Apply writes the diff's runs into dst (the receiver's copy of the page).
// The table's uvarints are read in line: in a page, an offset takes one or
// two bytes and a length one or two.
func (d *Diff) Apply(dst []byte) {
	t, data := d.runs, d.data
	for i, at := 0, 0; i < len(t); {
		off, n := int(t[i]), 0
		if i++; off >= 1<<7 {
			if off, i = off&0x7f|int(t[i])<<7, i+1; off >= 1<<14 {
				off, i = uvarintAt(t, i-2)
			}
		}
		if n, i = int(t[i]), i+1; n >= 1<<7 {
			if n, i = n&0x7f|int(t[i])<<7, i+1; n >= 1<<14 {
				n, i = uvarintAt(t, i-2)
			}
		}
		if n == WordSize { // a lone word: no call to copy
			StoreUint32(dst, off, LoadUint32(data, at))
		} else {
			copy(dst[off:], data[at:at+n])
		}
		at += n
	}
}

// uvarintAt reads the uvarint at t[i] of a run table, which MakeDiff or
// ReadDiff has found well formed, and returns it and the index after it.
func uvarintAt(t []byte, i int) (int, int) {
	v, k := binary.Uvarint(t[i:])
	return int(v), i + k
}

// Runs yields each run's offset and bytes, in order. Each run's bytes are
// capped at their own length, so appending to one never reaches into the
// next.
func (d *Diff) Runs() iter.Seq2[int, []byte] {
	return func(yield func(int, []byte) bool) {
		t, data := d.runs, d.data
		for i, at := 0, 0; i < len(t); {
			var off, n int
			off, i = uvarintAt(t, i)
			n, i = uvarintAt(t, i)
			if !yield(off, data[at:at+n:at+n]) {
				return
			}
			at += n
		}
	}
}

// NumRuns returns the number of runs.
func (d *Diff) NumRuns() int { return int(d.n) }

// Table returns the run table: per run its offset and length, each a
// uvarint, as the wire carries them after the page id and run count.
func (d *Diff) Table() []byte { return d.runs }

// Data returns the runs' bytes back to back, in run order: what the wire
// carries after all the frame's metadata, as one piece.
func (d *Diff) Data() []byte { return d.data }

// Attach sets the runs' bytes, whose lengths the table already holds: a
// decoder attaches the stretch of the frame that follows the metadata.
// len(data) must equal DataBytes.
func (d *Diff) Attach(data []byte) {
	if len(data) != int(d.size) {
		panic("mem: attached data does not match the run lengths")
	}
	d.data = data
}

// Detach copies the run table and data into memory of their own, so the
// diff no longer keeps alive whatever they were sliced from (a received
// frame's body): one allocation, whatever the run count. A short table
// goes inside the Diff, as MakeDiff places it.
func (d *Diff) Detach() {
	h := len(d.runs)
	if h+int(d.size) == 0 {
		return
	}
	if h <= len(d.short) {
		d.runs = d.short[:copy(d.short[:], d.runs):h]
		buf := make([]byte, len(d.data))
		copy(buf, d.data)
		d.data = buf
		return
	}
	buf := make([]byte, h+int(d.size))
	copy(buf, d.runs)
	copy(buf[h:], d.data)
	d.runs, d.data = buf[:h:h], buf[h:]
}

// DataBytes returns the number of modified bytes carried by the diff.
func (d *Diff) DataBytes() int { return int(d.size) }

// EncodedSize returns the exact wire size of the diff under the binary
// frame format: uvarint page id and run count, then the run table — per
// run a uvarint (offset, length) header — and the data bytes: TreadMarks'
// runlength encoding with varint headers.
func (d *Diff) EncodedSize() int {
	return uvarintLen(uint64(d.Page)) + uvarintLen(uint64(d.n)) + len(d.runs) + int(d.size)
}

// uvarintLen is the LEB128 length of v (kept local so mem stays a leaf
// package; must agree with transport.UvarintLen).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
