package core

import (
	"encoding/binary"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// The wire visitor. A message's wire method (msgs.go) lists its field
// visits on a wireRW, which runs the list in one of four modes:
//
//   - wireSize counts the bytes: the message's exact Size().
//   - wireEncode appends the metadata to the frame buffer and the large
//     []byte payloads (pages, diff runs, checkpoint frames) to the payload
//     list, which the transport sends as separate iovecs.
//   - wireDecode reads the metadata back; a payload field only gets a
//     placeholder of its length, as its bytes follow all metadata.
//   - wireFill, the decoder's second pass, slices the payloads out of the
//     frame in traversal order, without copying.
//
// Integers are uvarints (int32 through uint32), slices count-prefixed with
// a zero count decoding to nil. A visit switches on the mode once per
// field; vectors, diffs and encoded intervals run one tight loop per mode.
// Only a decoder writes fields: the others read messages nodes share.

type wireMode uint8

const (
	wireSize wireMode = iota
	wireEncode
	wireDecode
	wireFill
)

// wireRW is the visitor. The codec rows (codec.go) take it by value and run
// the wire method on their own copy; wire methods take it by pointer and
// keep no pointer to it or into the message, so neither leaves the stack.
type wireRW struct {
	mode wireMode
	n    int      // wireSize: bytes counted
	b    []byte   // wireEncode: metadata so far; wireDecode: the frame body
	p    [][]byte // wireEncode: payloads so far
	r    transport.WireReader
}

// fill turns a decoder into its payload pass.
func (w *wireRW) fill() *wireRW { w.mode = wireFill; return w }

// done reports whether the frame body decoded cleanly and completely.
func (w *wireRW) done() error { return w.r.Close() }

// check fails a decoder on a rule the field reads cannot see.
func (w *wireRW) check(ok bool) {
	if !ok && w.mode == wireDecode {
		w.r.Fail()
	}
}

// uvarint visits an integer as the uvarint of its 64-bit image.
func uvarint[T int | int64 | uint64](w *wireRW, v *T) {
	switch w.mode {
	case wireSize:
		w.n += transport.UvarintLen(uint64(*v))
	case wireEncode:
		w.b = transport.AppendUvarint(w.b, uint64(*v))
	case wireDecode:
		*v = T(w.r.Uvarint())
	}
}

func (w *wireRW) Int(v *int)    { uvarint(w, v) }
func (w *wireRW) I64(v *int64)  { uvarint(w, v) }
func (w *wireRW) U64(v *uint64) { uvarint(w, v) }

func (w *wireRW) I32(v *int32) {
	u := uint64(uint32(*v))
	if uvarint(w, &u); w.mode == wireDecode {
		*v = int32(uint32(u))
	}
}

func (w *wireRW) Bool(v *bool) {
	switch w.mode {
	case wireSize:
		w.n++
	case wireEncode:
		if *v {
			w.b = append(w.b, 1)
		} else {
			w.b = append(w.b, 0)
		}
	case wireDecode:
		*v = w.r.Bool()
	}
}

// fixed64 visits an integer as eight little-endian bytes (checkpoint page
// checksums, restorer ranks), as the size model has always charged them.
func fixed64[T int | uint64](w *wireRW, v *T) {
	switch w.mode {
	case wireSize:
		w.n += 8
	case wireEncode:
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(*v))
	case wireDecode:
		if b := w.r.Bytes(8); b != nil {
			*v = T(binary.LittleEndian.Uint64(b))
		}
	}
}

// Payload carries a large []byte: its length in the metadata, its bytes in
// the payload section.
func (w *wireRW) Payload(v *[]byte) {
	switch w.mode {
	case wireSize:
		w.n += transport.UvarintLen(uint64(len(*v))) + len(*v)
	case wireEncode:
		if w.b = transport.AppendUvarint(w.b, uint64(len(*v))); len(*v) > 0 {
			w.p = append(w.p, *v)
		}
	case wireDecode:
		n := w.r.Int()
		if w.check(n >= 0 && n <= w.r.Remaining()); n > 0 && n <= len(w.b) {
			*v = w.b[:n:n] // a placeholder that only records the length
		}
	case wireFill:
		*v = w.r.Bytes(len(*v))
	}
}

// list carries a slice's count and returns the slice to visit. A decoder
// refuses a count that could not fit at min bytes per element.
func list[T any](w *wireRW, s *[]T, min int) []T {
	if n := len(*s); w.mode != wireDecode {
		uvarint(w, &n)
	} else if n = w.r.Count(min); n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// TS carries a timestamp vector.
func (w *wireRW) TS(v *[]int32) {
	switch w.mode {
	case wireSize:
		w.n += transport.UvarintLen(uint64(len(*v)))
		for _, e := range *v {
			w.n += transport.UvarintLen(uint64(uint32(e)))
		}
	case wireEncode:
		b := transport.AppendUvarint(w.b, uint64(len(*v)))
		for _, e := range *v {
			b = transport.AppendUvarint(b, uint64(uint32(e)))
		}
		w.b = b
	case wireDecode:
		if n := w.r.Count(1); n > 0 {
			ts := make([]int32, n)
			for i := range ts {
				ts[i] = w.r.I32()
			}
			*v = ts
		}
	}
}

func (w *wireRW) VC(v *vc.VC) { w.TS((*[]int32)(v)) }

func (w *wireRW) key(k *wnKey) { w.Int(&k.page); w.Int(&k.proc); w.I32(&k.ts) }

func keyLen(k wnKey) int { var w wireRW; w.key(&k); return w.n }

func (w *wireRW) Keys(ks *[]wnKey) {
	for i := range list(w, ks, 3) {
		w.key(&(*ks)[i])
	}
}

// Intervals flatten to: a count, then per interval its proc, ts and VC,
// then its write notices' count and per notice its page, owner flag and
// version. A batch (interval.go) holds the same rows in three slabs, so
// every mode is one loop over them, and a decoder makes three slices per
// message whatever the number of intervals. A decoder refuses a batch
// whose vector clocks differ in length.
func (w *wireRW) Intervals(b *ivBatch) {
	switch w.mode {
	case wireSize:
		stride, wn := b.stride(), 0
		w.n += transport.UvarintLen(uint64(len(b.Heads)))
		for i, h := range b.Heads {
			w.n += transport.UvarintLen(uint64(uint32(h.proc))) + transport.UvarintLen(uint64(uint32(h.ts)))
			ivc := b.VCs[i*stride : (i+1)*stride]
			w.TS(&ivc)
			w.n += transport.UvarintLen(uint64(h.nwn))
			for _, r := range b.WNs[wn : wn+int(h.nwn)] {
				w.n += transport.UvarintLen(uint64(uint32(r.page))) + 1 + transport.UvarintLen(uint64(uint32(r.version())))
			}
			wn += int(h.nwn)
		}
	case wireEncode: // every lock grant: one tight loop
		stride, wn := b.stride(), 0
		w.b = transport.AppendUvarint(w.b, uint64(len(b.Heads)))
		for i, h := range b.Heads {
			w.b = transport.AppendUvarint(transport.AppendUvarint(w.b, uint64(uint32(h.proc))), uint64(uint32(h.ts)))
			ivc := b.VCs[i*stride : (i+1)*stride]
			w.TS(&ivc)
			out := transport.AppendUvarint(w.b, uint64(h.nwn))
			for _, r := range b.WNs[wn : wn+int(h.nwn)] {
				if out = append(transport.AppendUvarint(out, uint64(uint32(r.page))), 0); r.owner() {
					out[len(out)-1] = 1
				}
				out = transport.AppendUvarint(out, uint64(uint32(r.version())))
			}
			w.b = out
			wn += int(h.nwn)
		}
	case wireDecode:
		n := w.r.Count(4)
		if n == 0 {
			return
		}
		b.Heads = make([]ivHead, n)
		stride := -1
		for i := range b.Heads {
			h := &b.Heads[i]
			h.proc, h.ts = w.r.I32(), w.r.I32()
			k := w.r.Count(1)
			if stride < 0 {
				// Every interval left holds at least stride bytes of clock.
				if stride = k; stride > 0 && (n-i)*stride <= w.r.Remaining() {
					b.VCs = make([]int32, n*stride)
				}
			}
			if w.check(k == stride && len(b.VCs) == n*stride); k != stride || len(b.VCs) != n*stride {
				return
			}
			for j := range b.VCs[i*stride : (i+1)*stride] {
				b.VCs[i*stride+j] = w.r.I32()
			}
			nwn := w.r.Count(3)
			h.nwn = int32(nwn)
			if nwn > 0 && b.WNs == nil {
				b.WNs = make([]wnRow, 0, max(n, nwn))
			}
			for range nwn {
				r := wnRow{page: w.r.I32()}
				if owner, v := w.r.Bool(), w.r.I32(); owner {
					r = ownerRow(int(r.page), v)
				}
				b.WNs = append(b.WNs, r)
			}
		}
	}
}

// Facts carries a barrier arrival's page facts behind one count word whose
// low bit is the arrival's memory-pressure flag, so an arrival with no
// facts (every protocol but adaptive) is the one flag byte it always was.
func (w *wireRW) Facts(fs *[]pageFact, pressure *bool) {
	word := uint64(len(*fs))<<1 | uint64(btoi(*pressure))
	if w.U64(&word); w.mode == wireDecode {
		*pressure = word&1 != 0
		if n := word >> 1; n > 0 && n <= uint64(w.r.Remaining()/5) {
			*fs = make([]pageFact, n)
		} else {
			w.check(n == 0)
		}
	}
	for i := range *fs {
		f := &(*fs)[i]
		w.Int(&f.Page)
		w.Bool(&f.First)
		w.I64(&f.Diffs.count)
		w.I64(&f.Diffs.bytes)
		w.Int(&f.Diffs.max)
	}
}

// Switches carries the adaptive policy's per-page decisions (barrier
// releases and the recovery protocol round).
func (w *wireRW) Switches(sws *[]policySwitch) {
	for i := range list(w, sws, 4) {
		s := &(*sws)[i]
		w.Int(&s.Page)
		w.I32(&s.Proto)
		w.Int(&s.Owner)
		w.I32(&s.Version)
	}
}

// Diffs carries a count, then per diff its page and run count and per run
// an (offset, length) header, the run data going to the payload section.
func (w *wireRW) Diffs(ds *[]*mem.Diff) {
	for i := range list(w, ds, 2) {
		w.diff(&(*ds)[i])
	}
}

// Pushed carries a lock grant's pushed diffs: one count, then per diff its
// key and the diff as in Diffs.
func (w *wireRW) Pushed(ds *[]*mem.Diff, ks *[]wnKey) {
	if list(w, ds, 5); w.mode == wireDecode && len(*ds) > 0 {
		*ks = make([]wnKey, len(*ds))
	}
	for i := range *ds {
		w.key(&(*ks)[i])
		w.diff(&(*ds)[i])
	}
}

// diff visits one diff: its page and run count, then its run table, which
// holds the runs' (offset, length) headers in wire form, in one piece, the
// run data going to the payload section as one slice. A decoder's diff
// keeps its table in the frame, as it does its data, until Detach; it
// refuses a run that leaves the page (mem.ReadDiff).
func (w *wireRW) diff(dp **mem.Diff) {
	switch d := *dp; w.mode {
	case wireSize:
		w.n += d.EncodedSize()
	case wireEncode:
		b := transport.AppendUvarint(transport.AppendUvarint(w.b, uint64(d.Page)), uint64(d.NumRuns()))
		w.b = append(b, d.Table()...)
		if data := d.Data(); len(data) > 0 {
			w.p = append(w.p, data)
		}
	case wireDecode:
		page, count := w.r.Int(), w.r.Count(2)
		d, n, ok := mem.ReadDiff(page, count, w.b[len(w.b)-w.r.Remaining():])
		w.check(ok)
		w.r.Bytes(n)
		*dp = d
	case wireFill:
		// The runs' data follow one another in the frame: cut them from
		// one stretch, so Detach and a re-encode take it whole.
		if data := w.r.Bytes(d.DataBytes()); data != nil {
			d.Attach(data)
		}
	}
}
