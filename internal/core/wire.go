package core

import (
	"encoding/binary"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// Hand-rolled binary encodings for every protocol message this package
// registers (the AppendWire/DecodeWire hooks in codec.go). Layout
// conventions are transport/wire.go's: uvarint integers, count-prefixed
// slices with zero counts decoding to nil, and large []byte payloads (page
// contents, diff run data, checkpoint frames) declared by length in the
// metadata but carried in a payload section after it — the transport sends
// them as separate iovecs and the decoder slices them out of the frame blob
// without copying.
//
// For most messages Size() in msgs.go is the exact byte count these
// encoders produce; wire_test.go pins the two to each other and to the gob
// round-trip. The lock, home-flush and home-bind messages (acq*, hlrc*,
// homeBind*) still declare the sizes the cost model was calibrated with,
// which the audit holds to the binary body within its slack rule
// (modelledSizes in codec_test.go).

// --- append/size/read primitives ---

func putU(b []byte, v uint64) []byte  { return transport.AppendUvarint(b, v) }
func putI(b []byte, v int) []byte     { return transport.AppendUvarint(b, uint64(v)) }
func putI32(b []byte, v int32) []byte { return transport.AppendUvarint(b, uint64(uint32(v))) }

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func uLen(v uint64) int  { return transport.UvarintLen(v) }
func iLen(v int) int     { return uLen(uint64(v)) }
func i32Len(v int32) int { return uLen(uint64(uint32(v))) }

func putTS(b []byte, ts []int32) []byte {
	b = putI(b, len(ts))
	for _, e := range ts {
		b = putI32(b, e)
	}
	return b
}

func tsLen(ts []int32) int {
	n := iLen(len(ts))
	for _, e := range ts {
		n += i32Len(e)
	}
	return n
}

func readTS(r *transport.WireReader) []int32 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ts := make([]int32, n)
	for i := range ts {
		ts[i] = r.I32()
	}
	return ts
}

func putVC(b []byte, v vc.VC) []byte { return putTS(b, v) }
func vcLen(v vc.VC) int              { return tsLen(v) }

func readVC(r *transport.WireReader) vc.VC {
	ts := readTS(r)
	if ts == nil {
		return nil
	}
	return vc.VC(ts)
}

func putKeys(b []byte, ks []wnKey) []byte {
	b = putI(b, len(ks))
	for _, k := range ks {
		b = putI(b, k.page)
		b = putI(b, k.proc)
		b = putI32(b, k.ts)
	}
	return b
}

func keysLen(ks []wnKey) int {
	n := iLen(len(ks))
	for _, k := range ks {
		n += iLen(k.page) + iLen(k.proc) + i32Len(k.ts)
	}
	return n
}

func readKeys(r *transport.WireReader) []wnKey {
	n := r.Count(3)
	if n == 0 {
		return nil
	}
	ks := make([]wnKey, n)
	for i := range ks {
		ks[i] = wnKey{page: r.Int(), proc: r.Int(), ts: r.I32()}
	}
	return ks
}

// Intervals flatten exactly like the gob wire form: per interval its proc,
// ts and VC, then the write notices without their back-pointer (the
// decoder re-links each notice to its enclosing interval).

func putIntervals(b []byte, ivs []*Interval) []byte {
	b = putI(b, len(ivs))
	for _, iv := range ivs {
		b = putI(b, iv.Proc)
		b = putI32(b, iv.TS)
		b = putVC(b, iv.VC)
		b = putI(b, len(iv.WNs))
		for _, wn := range iv.WNs {
			b = putI(b, wn.Page)
			b = putBool(b, wn.Owner)
			b = putI32(b, wn.Version)
			b = putI(b, wn.DataHint)
		}
	}
	return b
}

func intervalsLen(ivs []*Interval) int {
	n := iLen(len(ivs))
	for _, iv := range ivs {
		n += iLen(iv.Proc) + i32Len(iv.TS) + vcLen(iv.VC) + iLen(len(iv.WNs))
		for _, wn := range iv.WNs {
			n += iLen(wn.Page) + 1 + i32Len(wn.Version) + iLen(wn.DataHint)
		}
	}
	return n
}

func readIntervals(r *transport.WireReader) []*Interval {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]*Interval, n)
	for i := range out {
		iv := &Interval{Proc: r.Int(), TS: r.I32(), VC: readVC(r)}
		nw := r.Count(4)
		if nw > 0 {
			iv.WNs = make([]*WriteNotice, nw)
			for j := range iv.WNs {
				iv.WNs[j] = &WriteNotice{Page: r.Int(), Int: iv, Owner: r.Bool(),
					Version: r.I32(), DataHint: r.Int()}
			}
		}
		out[i] = iv
	}
	return out
}

// Policy switches (barrier releases and the recovery protocol round).

func putSwitches(b []byte, sws []policySwitch) []byte {
	b = putI(b, len(sws))
	for _, s := range sws {
		b = putI(b, s.Page)
		b = putI32(b, s.Proto)
		b = putI(b, s.Owner)
		b = putI32(b, s.Version)
	}
	return b
}

func switchesLen(sws []policySwitch) int {
	n := iLen(len(sws))
	for _, s := range sws {
		n += iLen(s.Page) + i32Len(s.Proto) + iLen(s.Owner) + i32Len(s.Version)
	}
	return n
}

func readSwitches(r *transport.WireReader) []policySwitch {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	sws := make([]policySwitch, n)
	for i := range sws {
		sws[i] = policySwitch{Page: r.Int(), Proto: r.I32(), Owner: r.Int(), Version: r.I32()}
	}
	return sws
}

// Fixed-width 64-bit fields (checkpoint page checksums, restorer ranks):
// eight little-endian bytes, as the size model has always charged them.

func putFixed64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func readFixed64(r *transport.WireReader) uint64 {
	b := r.Bytes(8)
	if b == nil {
		return 0 // the reader is poisoned; Close reports it
	}
	return binary.LittleEndian.Uint64(b)
}

// Diff metadata: uvarint page and run count, then per run a uvarint
// (offset, length) header. The run data bytes go to the payload section;
// the decoder's second pass slices them back in traversal order. The
// total (meta + data) is exactly mem.Diff.EncodedSize.

func putDiffMeta(b []byte, payloads [][]byte, d *mem.Diff) ([]byte, [][]byte) {
	b = putI(b, d.Page)
	b = putI(b, len(d.Runs))
	for _, run := range d.Runs {
		b = putI(b, run.Off)
		b = putI(b, len(run.Data))
		if len(run.Data) > 0 {
			payloads = append(payloads, run.Data)
		}
	}
	return b, payloads
}

func readDiffMeta(r *transport.WireReader, lens []int) (*mem.Diff, []int) {
	d := &mem.Diff{Page: r.Int()}
	nr := r.Count(2)
	if nr > 0 {
		d.Runs = make([]mem.Run, nr)
		for j := range d.Runs {
			d.Runs[j].Off = r.Int()
			lens = append(lens, r.Int())
		}
	}
	return d, lens
}

// readDiffData fills one diff's run payloads from the payload section.
func readDiffData(r *transport.WireReader, d *mem.Diff, lens []int) []int {
	for j := range d.Runs {
		d.Runs[j].Data = r.Bytes(lens[0])
		lens = lens[1:]
	}
	return lens
}

// --- pageReq / pageResp ---

func pageReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(pageReq)
	b = putI(b, r.Page)
	b = putI(b, r.Hops)
	return b, payloads
}

func pageReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := pageReq{Page: r.Int(), Hops: r.Int()}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func pageRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(pageResp)
	b = putVC(b, r.Applied)
	b = putI(b, len(r.Data))
	if len(r.Data) > 0 {
		payloads = append(payloads, r.Data)
	}
	return b, payloads
}

func pageRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m pageResp
	m.Applied = readVC(r)
	m.Data = r.Bytes(r.Int())
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- diffReq / diffResp ---

func diffReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(diffReq)
	b = putI(b, r.Page)
	b = putBool(b, r.SeesFS)
	b = putKeys(b, r.Wants)
	return b, payloads
}

func diffReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := diffReq{Page: r.Int(), SeesFS: r.Bool()}
	m.Wants = readKeys(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func diffRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(diffResp)
	b = putI(b, len(r.Diffs))
	for _, d := range r.Diffs {
		b, payloads = putDiffMeta(b, payloads, d)
	}
	b = putKeys(b, r.Keys)
	return b, payloads
}

func diffRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m diffResp
	var lens []int
	nd := r.Count(2)
	if nd > 0 {
		m.Diffs = make([]*mem.Diff, nd)
		for i := range m.Diffs {
			m.Diffs[i], lens = readDiffMeta(r, lens)
		}
	}
	m.Keys = readKeys(r)
	for _, d := range m.Diffs {
		lens = readDiffData(r, d, lens)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- spanFetchReq / spanFetchResp ---

func spanFetchReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(spanFetchReq)
	b = putI(b, len(r.Pages))
	for _, p := range r.Pages {
		b = putI(b, p)
	}
	b = putI(b, len(r.Diffs))
	for _, d := range r.Diffs {
		b = putI(b, d.Page)
		b = putBool(b, d.SeesFS)
		b = putKeys(b, d.Wants)
	}
	return b, payloads
}

func spanFetchReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m spanFetchReq
	np := r.Count(1)
	if np > 0 {
		m.Pages = make([]int, np)
		for i := range m.Pages {
			m.Pages[i] = r.Int()
		}
	}
	nd := r.Count(3)
	if nd > 0 {
		m.Diffs = make([]spanDiffWant, nd)
		for i := range m.Diffs {
			m.Diffs[i] = spanDiffWant{Page: r.Int(), SeesFS: r.Bool()}
			m.Diffs[i].Wants = readKeys(r)
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func spanFetchRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(spanFetchResp)
	b = putI(b, len(r.Pages))
	for _, p := range r.Pages {
		b = putI(b, p.Page)
		b = putBool(b, p.Served)
		b = putVC(b, p.Applied)
		b = putI(b, len(p.Data))
		if len(p.Data) > 0 {
			payloads = append(payloads, p.Data)
		}
	}
	b = putI(b, len(r.Diffs))
	for _, d := range r.Diffs {
		b = putI(b, d.Page)
		b = putKeys(b, d.Keys)
		b = putI(b, len(d.Diffs))
		for _, df := range d.Diffs {
			b, payloads = putDiffMeta(b, payloads, df)
		}
	}
	return b, payloads
}

func spanFetchRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m spanFetchResp
	np := r.Count(4)
	pageLens := make([]int, 0, np)
	if np > 0 {
		m.Pages = make([]spanPageCopy, np)
		for i := range m.Pages {
			m.Pages[i] = spanPageCopy{Page: r.Int(), Served: r.Bool(), Applied: readVC(r)}
			pageLens = append(pageLens, r.Int())
		}
	}
	var lens []int
	nb := r.Count(3)
	if nb > 0 {
		m.Diffs = make([]spanDiffBundle, nb)
		for i := range m.Diffs {
			m.Diffs[i] = spanDiffBundle{Page: r.Int()}
			m.Diffs[i].Keys = readKeys(r)
			ndf := r.Count(2)
			if ndf > 0 {
				m.Diffs[i].Diffs = make([]*mem.Diff, ndf)
				for j := range m.Diffs[i].Diffs {
					m.Diffs[i].Diffs[j], lens = readDiffMeta(r, lens)
				}
			}
		}
	}
	for i := range m.Pages {
		m.Pages[i].Data = r.Bytes(pageLens[i])
	}
	for _, d := range m.Diffs {
		for _, df := range d.Diffs {
			lens = readDiffData(r, df, lens)
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- one-sided region reads ---

func regionReadReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(regionReadReq)
	b = putI(b, r.Page)
	b = putI(b, r.Hops)
	return b, payloads
}

func regionReadReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := regionReadReq{Page: r.Int(), Hops: r.Int()}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func regionReadRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(regionReadResp)
	b = putVC(b, r.Applied)
	b = putI(b, len(r.Data))
	if len(r.Data) > 0 {
		payloads = append(payloads, r.Data)
	}
	return b, payloads
}

func regionReadRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m regionReadResp
	m.Applied = readVC(r)
	m.Data = r.Bytes(r.Int())
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// The span forms carry a trailing reserved count that is always zero (it
// stands in for spanFetchReq/Resp's empty Diffs section, keeping the
// encodings length-identical to the handler-path pair); the decoders
// reject a nonzero value so encode∘decode stays a fixed point.

func regionSpanReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(regionSpanReq)
	b = putI(b, len(r.Pages))
	for _, p := range r.Pages {
		b = putI(b, p)
	}
	b = putI(b, 0)
	return b, payloads
}

func regionSpanReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m regionSpanReq
	np := r.Count(1)
	if np > 0 {
		m.Pages = make([]int, np)
		for i := range m.Pages {
			m.Pages[i] = r.Int()
		}
	}
	if r.Int() != 0 {
		r.Fail()
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func regionSpanRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(regionSpanResp)
	b = putI(b, len(r.Pages))
	for _, p := range r.Pages {
		b = putI(b, p.Page)
		b = putBool(b, p.Served)
		b = putVC(b, p.Applied)
		b = putI(b, len(p.Data))
		if len(p.Data) > 0 {
			payloads = append(payloads, p.Data)
		}
	}
	b = putI(b, 0)
	return b, payloads
}

func regionSpanRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m regionSpanResp
	np := r.Count(4)
	pageLens := make([]int, 0, np)
	if np > 0 {
		m.Pages = make([]spanPageCopy, np)
		for i := range m.Pages {
			m.Pages[i] = spanPageCopy{Page: r.Int(), Served: r.Bool(), Applied: readVC(r)}
			pageLens = append(pageLens, r.Int())
		}
	}
	if r.Int() != 0 {
		r.Fail()
	}
	for i := range m.Pages {
		m.Pages[i].Data = r.Bytes(pageLens[i])
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- ownership ---

func ownReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(ownReq)
	b = putI(b, r.Page)
	b = putI32(b, r.Version)
	b = putBool(b, r.NeedPage)
	b = putBool(b, r.Resume)
	b = putVC(b, r.Applied)
	return b, payloads
}

func ownReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := ownReq{Page: r.Int(), Version: r.I32(), NeedPage: r.Bool(), Resume: r.Bool()}
	m.Applied = readVC(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func ownRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(ownResp)
	b = putBool(b, r.Granted)
	b = putI32(b, r.Version)
	b = putVC(b, r.Applied)
	b = putI(b, len(r.Data))
	if len(r.Data) > 0 {
		payloads = append(payloads, r.Data)
	}
	return b, payloads
}

func ownRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := ownResp{Granted: r.Bool(), Version: r.I32()}
	m.Applied = readVC(r)
	m.Data = r.Bytes(r.Int())
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func ownBatchReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(ownBatchReq)
	b = putI(b, len(r.Reqs))
	for _, q := range r.Reqs {
		b, payloads = ownReqAppendWire(q, b, payloads)
	}
	return b, payloads
}

func ownBatchReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m ownBatchReq
	nr := r.Count(4)
	if nr > 0 {
		m.Reqs = make([]ownReq, nr)
		for i := range m.Reqs {
			m.Reqs[i] = ownReq{Page: r.Int(), Version: r.I32(), NeedPage: r.Bool(), Resume: r.Bool()}
			m.Reqs[i].Applied = readVC(r)
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func ownBatchRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(ownBatchResp)
	b = putI(b, len(r.Resps))
	for _, q := range r.Resps {
		b, payloads = ownRespAppendWire(q, b, payloads)
	}
	return b, payloads
}

func ownBatchRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m ownBatchResp
	nr := r.Count(3)
	pageLens := make([]int, 0, nr)
	if nr > 0 {
		m.Resps = make([]ownResp, nr)
		for i := range m.Resps {
			m.Resps[i] = ownResp{Granted: r.Bool(), Version: r.I32()}
			m.Resps[i].Applied = readVC(r)
			pageLens = append(pageLens, r.Int())
		}
	}
	for i := range m.Resps {
		m.Resps[i].Data = r.Bytes(pageLens[i])
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func swOwnReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(swOwnReq)
	b = putI(b, r.Page)
	b = putI(b, r.Hops)
	return b, payloads
}

func swOwnReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := swOwnReq{Page: r.Int(), Hops: r.Int()}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func swOwnGrantAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(swOwnGrant)
	b = putI32(b, r.Version)
	b = putVC(b, r.Applied)
	b = putI(b, len(r.Data))
	if len(r.Data) > 0 {
		payloads = append(payloads, r.Data)
	}
	return b, payloads
}

func swOwnGrantDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := swOwnGrant{Version: r.I32()}
	m.Applied = readVC(r)
	m.Data = r.Bytes(r.Int())
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- barriers ---

func barArriveAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(barArrive)
	b = putU(b, uint64(r.Epoch))
	b = putTS(b, r.KnownTS)
	b = putIntervals(b, r.Intervals)
	b = putBool(b, r.MemPressure)
	b = putI(b, r.nprocs)
	return b, payloads
}

func barArriveDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m barArrive
	m.Epoch = int64(r.Uvarint())
	m.KnownTS = readTS(r)
	m.Intervals = readIntervals(r)
	m.MemPressure = r.Bool()
	m.nprocs = r.Int()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func barReleaseAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(barRelease)
	b = putIntervals(b, r.Intervals)
	b = putTS(b, r.Global)
	b = putBool(b, r.GC)
	b = putI(b, len(r.Hints))
	for _, h := range r.Hints {
		b = putI(b, h.Page)
		b = putI(b, h.Owner)
		b = putI32(b, h.Version)
	}
	b = putSwitches(b, r.Switches)
	b = putI(b, r.nprocs)
	return b, payloads
}

func barReleaseDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m barRelease
	m.Intervals = readIntervals(r)
	m.Global = readTS(r)
	m.GC = r.Bool()
	nh := r.Count(3)
	if nh > 0 {
		m.Hints = make([]gcHint, nh)
		for i := range m.Hints {
			m.Hints[i] = gcHint{Page: r.Int(), Owner: r.Int(), Version: r.I32()}
		}
	}
	m.Switches = readSwitches(r)
	m.nprocs = r.Int()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- locks ---

func acqReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(acqReq)
	b = putI(b, r.Lock)
	b = putTS(b, r.KnownTS)
	return b, payloads
}

func acqReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := acqReq{Lock: r.Int()}
	m.KnownTS = readTS(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func acqFwdAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(acqFwd)
	b = putI(b, r.Lock)
	b = putI(b, r.Origin)
	b = putTS(b, r.KnownTS)
	return b, payloads
}

func acqFwdDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := acqFwd{Lock: r.Int(), Origin: r.Int()}
	m.KnownTS = readTS(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func acqGrantAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(acqGrant)
	b = putIntervals(b, r.Intervals)
	b = putVC(b, r.VC)
	b = putI(b, r.nprocs)
	return b, payloads
}

func acqGrantDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m acqGrant
	m.Intervals = readIntervals(r)
	m.VC = readVC(r)
	m.nprocs = r.Int()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- home flushes (HLRC) ---

// Each entry carries its page and then the diff's own metadata (which
// repeats the page: hlrcEntry and mem.Diff both hold it and the gob form
// round-trips both).

func hlrcFlushAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(hlrcFlush)
	b = putVC(b, r.VC)
	b = putI(b, len(r.Entries))
	for _, e := range r.Entries {
		b = putI(b, e.Page)
		b, payloads = putDiffMeta(b, payloads, e.Diff)
	}
	return b, payloads
}

func hlrcFlushDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m hlrcFlush
	m.VC = readVC(r)
	var lens []int
	ne := r.Count(3)
	if ne > 0 {
		m.Entries = make([]hlrcEntry, ne)
		for i := range m.Entries {
			m.Entries[i].Page = r.Int()
			m.Entries[i].Diff, lens = readDiffMeta(r, lens)
		}
	}
	for _, e := range m.Entries {
		lens = readDiffData(r, e.Diff, lens)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func hlrcAckAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	return b, payloads
}

func hlrcAckDecodeWire(body []byte) (transport.Msg, error) {
	if err := transport.NewWireReader(body).Close(); err != nil {
		return nil, err
	}
	return hlrcAck{}, nil
}

// --- home binding ---

func homeBindReqAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	return putI(b, m.(homeBindReq).Page), payloads
}

func homeBindReqDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := homeBindReq{Page: r.Int()}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func homeBindRespAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	return putI(b, m.(homeBindResp).Home), payloads
}

func homeBindRespDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := homeBindResp{Home: r.Int()}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- checkpoints and recovery ---

// ckptPut's page frames ride the payload section like every other page
// carrier; the per-page metadata is (page, length, protocol, checksum).

func ckptPutAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(ckptPut)
	b = putI(b, r.From)
	b = putU(b, uint64(r.Step))
	b = putI(b, len(r.Pages))
	for _, p := range r.Pages {
		b = putI(b, p.Page)
		b = putI(b, len(p.Data))
		b = putI32(b, p.Proto)
		b = putFixed64(b, p.Sum)
		if len(p.Data) > 0 {
			payloads = append(payloads, p.Data)
		}
	}
	return b, payloads
}

func ckptPutDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := ckptPut{From: r.Int(), Step: int64(r.Uvarint())}
	np := r.Count(11)
	pageLens := make([]int, 0, np)
	if np > 0 {
		m.Pages = make([]ckptPage, np)
		for i := range m.Pages {
			m.Pages[i].Page = r.Int()
			pageLens = append(pageLens, r.Int())
			m.Pages[i].Proto = r.I32()
			m.Pages[i].Sum = readFixed64(r)
		}
	}
	for i := range m.Pages {
		m.Pages[i].Data = r.Bytes(pageLens[i])
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// ckptAck is one reserved zero byte (the size the model charges); the
// decoder rejects anything else so encode∘decode stays a fixed point.

func ckptAckAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	return append(b, 0), payloads
}

func ckptAckDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	if r.Byte() != 0 {
		r.Fail()
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return ckptAck{}, nil
}

// Checkpoint steps are int64 with -1 meaning "none"; they travel as the
// uvarint of their two's-complement bits (ten bytes for -1), as sized.

func recArriveAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(recArrive)
	b = putI(b, r.Node)
	b = putU(b, uint64(r.OwnCommitted))
	b = putU(b, uint64(r.OwnPending))
	b = putU(b, uint64(r.RepCommitted))
	b = putU(b, uint64(r.RepPending))
	return b, payloads
}

func recArriveDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := recArrive{Node: r.Int(),
		OwnCommitted: int64(r.Uvarint()), OwnPending: int64(r.Uvarint()),
		RepCommitted: int64(r.Uvarint()), RepPending: int64(r.Uvarint())}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func recReleaseAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(recRelease)
	b = putU(b, uint64(r.Step))
	b = putI(b, len(r.Restorer))
	for _, p := range r.Restorer {
		b = putFixed64(b, uint64(p))
	}
	return b, payloads
}

func recReleaseDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := recRelease{Step: int64(r.Uvarint())}
	n := r.Count(8)
	if n > 0 {
		m.Restorer = make([]int, n)
		for i := range m.Restorer {
			m.Restorer[i] = int(readFixed64(r))
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func recProtoArriveAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(recProtoArrive)
	b = putI(b, r.Node)
	b = putSwitches(b, r.Switches)
	return b, payloads
}

func recProtoArriveDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := recProtoArrive{Node: r.Int()}
	m.Switches = readSwitches(r)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func recProtoReleaseAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	return putSwitches(b, m.(recProtoRelease).Switches), payloads
}

func recProtoReleaseDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := recProtoRelease{Switches: readSwitches(r)}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}
