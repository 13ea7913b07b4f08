package core

import (
	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// Wire encodings for every protocol message, registered with the transport
// codec registry so real transports (internal/transport/tcp) can carry
// them. Every message registers two forms: the hand-rolled binary hooks
// (wire.go) that the transport uses, and a gob wire form that survives
// only behind the transport's escape frame (Options.ForceGob, the CI pin
// that the encoding does not leak into behaviour). Most messages are plain
// structs with exported fields and act as their own gob form; the
// exceptions are:
//
//   - diffReq/diffResp, whose wnKey has unexported fields,
//   - acqGrant/barArrive/barRelease, which carry []*Interval — the
//     intervals' write notices point back at their interval, a cycle gob
//     cannot encode, so they flatten to wireInterval/wireWN and are
//     reconstructed (with the back-pointers) on decode.
//
// The simulator passes messages by reference and never touches these; the
// sim/tcp equivalence harness is what pins the two paths to each other.

// wireKey is the exported form of wnKey.
type wireKey struct {
	Page int
	Proc int
	TS   int32
}

// The slice converters all map empty to nil, matching both what plain gob
// does to a nil slice and what the binary decoders produce from a zero
// count — so a message means the same thing whichever wire body carried
// it (pinned by TestBinaryRoundTripMatchesGob).

func toWireKeys(ks []wnKey) []wireKey {
	if len(ks) == 0 {
		return nil
	}
	out := make([]wireKey, len(ks))
	for i, k := range ks {
		out[i] = wireKey{Page: k.page, Proc: k.proc, TS: k.ts}
	}
	return out
}

func fromWireKeys(ws []wireKey) []wnKey {
	if len(ws) == 0 {
		return nil
	}
	out := make([]wnKey, len(ws))
	for i, w := range ws {
		out[i] = wnKey{page: w.Page, proc: w.Proc, ts: w.TS}
	}
	return out
}

// wireWN is one write notice, flattened (its interval is the enclosing
// wireInterval).
type wireWN struct {
	Page     int
	Owner    bool
	Version  int32
	DataHint int
}

// wireInterval is one interval with its write notices, acyclic.
type wireInterval struct {
	Proc int
	TS   int32
	VC   []int32
	WNs  []wireWN
}

func toWireIntervals(ivs []*Interval) []wireInterval {
	if len(ivs) == 0 {
		return nil
	}
	out := make([]wireInterval, len(ivs))
	for i, iv := range ivs {
		w := wireInterval{Proc: iv.Proc, TS: iv.TS, VC: iv.VC}
		if len(iv.WNs) > 0 {
			w.WNs = make([]wireWN, len(iv.WNs))
		}
		for j, wn := range iv.WNs {
			w.WNs[j] = wireWN{Page: wn.Page, Owner: wn.Owner, Version: wn.Version, DataHint: wn.DataHint}
		}
		out[i] = w
	}
	return out
}

func fromWireIntervals(ws []wireInterval) []*Interval {
	if len(ws) == 0 {
		return nil
	}
	out := make([]*Interval, len(ws))
	for i, w := range ws {
		iv := &Interval{Proc: w.Proc, TS: w.TS, VC: vc.VC(w.VC)}
		if len(w.WNs) > 0 {
			iv.WNs = make([]*WriteNotice, len(w.WNs))
		}
		for j, wn := range w.WNs {
			iv.WNs[j] = &WriteNotice{Page: wn.Page, Int: iv, Owner: wn.Owner,
				Version: wn.Version, DataHint: wn.DataHint}
		}
		out[i] = iv
	}
	return out
}

type wireDiffReq struct {
	Page   int
	Wants  []wireKey
	SeesFS bool
}

type wireSpanDiffWant struct {
	Page   int
	Wants  []wireKey
	SeesFS bool
}

type wireSpanFetchReq struct {
	Pages []int
	Diffs []wireSpanDiffWant
}

type wireSpanDiffBundle struct {
	Page  int
	Keys  []wireKey
	Diffs []*mem.Diff
}

type wireSpanFetchResp struct {
	Pages []spanPageCopy // exported fields; encodes as-is like pageResp
	Diffs []wireSpanDiffBundle
}

type wireDiffResp struct {
	Diffs []*mem.Diff
	Keys  []wireKey
}

type wireAcqGrant struct {
	Intervals []wireInterval
	VC        []int32
	NProcs    int
}

type wireBarArrive struct {
	Epoch       int64
	KnownTS     []int32
	Intervals   []wireInterval
	MemPressure bool
	NProcs      int
}

type wireBarRelease struct {
	Intervals []wireInterval
	Global    []int32
	GC        bool
	Hints     []gcHint
	Switches  []policySwitch
	NProcs    int
}

func init() {
	// self registers a message that is its own gob wire form, with its
	// binary hooks (wire.go). Nothing here rides the gob escape by default:
	// an acq* triple is on every remote acquire and an hlrcFlush on every
	// HLRC release, so there is no cold path worth a reflective encoder.
	self := func(class transport.Class, name string, m transport.Msg,
		aw func(transport.Msg, []byte, [][]byte) ([]byte, [][]byte),
		dw func([]byte) (transport.Msg, error)) {
		transport.MustRegisterCodec(transport.Codec{Name: name, Class: class, Msg: m, AppendWire: aw, DecodeWire: dw})
	}
	ctl, bulk, region := transport.ClassControl, transport.ClassBulk, transport.ClassRegion
	self(ctl, "pageReq", pageReq{}, pageReqAppendWire, pageReqDecodeWire)
	self(bulk, "pageResp", pageResp{}, pageRespAppendWire, pageRespDecodeWire)
	self(ctl, "ownReq", ownReq{}, ownReqAppendWire, ownReqDecodeWire)
	self(ctl, "ownResp", ownResp{}, ownRespAppendWire, ownRespDecodeWire)
	self(ctl, "ownBatchReq", ownBatchReq{}, ownBatchReqAppendWire, ownBatchReqDecodeWire)
	self(ctl, "ownBatchResp", ownBatchResp{}, ownBatchRespAppendWire, ownBatchRespDecodeWire)
	self(ctl, "swOwnReq", swOwnReq{}, swOwnReqAppendWire, swOwnReqDecodeWire)
	self(ctl, "swOwnGrant", swOwnGrant{}, swOwnGrantAppendWire, swOwnGrantDecodeWire)
	self(region, "regionReadReq", regionReadReq{}, regionReadReqAppendWire, regionReadReqDecodeWire)
	self(region, "regionReadResp", regionReadResp{}, regionReadRespAppendWire, regionReadRespDecodeWire)
	self(region, "regionSpanReq", regionSpanReq{}, regionSpanReqAppendWire, regionSpanReqDecodeWire)
	self(region, "regionSpanResp", regionSpanResp{}, regionSpanRespAppendWire, regionSpanRespDecodeWire)
	self(ctl, "hlrcFlush", hlrcFlush{}, hlrcFlushAppendWire, hlrcFlushDecodeWire)
	self(ctl, "hlrcAck", hlrcAck{}, hlrcAckAppendWire, hlrcAckDecodeWire)
	self(ctl, "homeBindReq", homeBindReq{}, homeBindReqAppendWire, homeBindReqDecodeWire)
	self(ctl, "homeBindResp", homeBindResp{}, homeBindRespAppendWire, homeBindRespDecodeWire)
	self(ctl, "acqReq", acqReq{}, acqReqAppendWire, acqReqDecodeWire)
	self(ctl, "acqFwd", acqFwd{}, acqFwdAppendWire, acqFwdDecodeWire)
	self(bulk, "ckptPut", ckptPut{}, ckptPutAppendWire, ckptPutDecodeWire)
	self(ctl, "ckptAck", ckptAck{}, ckptAckAppendWire, ckptAckDecodeWire)
	self(ctl, "recArrive", recArrive{}, recArriveAppendWire, recArriveDecodeWire)
	self(ctl, "recRelease", recRelease{}, recReleaseAppendWire, recReleaseDecodeWire)
	self(ctl, "recProtoArrive", recProtoArrive{}, recProtoArriveAppendWire, recProtoArriveDecodeWire)
	self(ctl, "recProtoRelease", recProtoRelease{}, recProtoReleaseAppendWire, recProtoReleaseDecodeWire)

	transport.MustRegisterCodec(transport.Codec{
		Name: "diffReq", Msg: diffReq{}, Wire: wireDiffReq{},
		AppendWire: diffReqAppendWire, DecodeWire: diffReqDecodeWire,
		Encode: func(m transport.Msg) any {
			r := m.(diffReq)
			return wireDiffReq{Page: r.Page, Wants: toWireKeys(r.Wants), SeesFS: r.SeesFS}
		},
		Decode: func(v any) transport.Msg {
			w := v.(wireDiffReq)
			return diffReq{Page: w.Page, Wants: fromWireKeys(w.Wants), SeesFS: w.SeesFS}
		},
	})
	transport.MustRegisterCodec(transport.Codec{
		Name: "diffResp", Class: transport.ClassBulk, Msg: diffResp{}, Wire: wireDiffResp{},
		AppendWire: diffRespAppendWire, DecodeWire: diffRespDecodeWire,
		Encode: func(m transport.Msg) any {
			r := m.(diffResp)
			return wireDiffResp{Diffs: r.Diffs, Keys: toWireKeys(r.Keys)}
		},
		Decode: func(v any) transport.Msg {
			w := v.(wireDiffResp)
			return diffResp{Diffs: w.Diffs, Keys: fromWireKeys(w.Keys)}
		},
	})
	transport.MustRegisterCodec(transport.Codec{
		Name: "spanFetchReq", Msg: spanFetchReq{}, Wire: wireSpanFetchReq{},
		AppendWire: spanFetchReqAppendWire, DecodeWire: spanFetchReqDecodeWire,
		Encode: func(m transport.Msg) any {
			r := m.(spanFetchReq)
			w := wireSpanFetchReq{Pages: r.Pages}
			if len(r.Diffs) > 0 {
				w.Diffs = make([]wireSpanDiffWant, len(r.Diffs))
			}
			for i, d := range r.Diffs {
				w.Diffs[i] = wireSpanDiffWant{Page: d.Page, Wants: toWireKeys(d.Wants), SeesFS: d.SeesFS}
			}
			return w
		},
		Decode: func(v any) transport.Msg {
			w := v.(wireSpanFetchReq)
			r := spanFetchReq{Pages: w.Pages}
			if len(w.Diffs) > 0 {
				r.Diffs = make([]spanDiffWant, len(w.Diffs))
			}
			for i, d := range w.Diffs {
				r.Diffs[i] = spanDiffWant{Page: d.Page, Wants: fromWireKeys(d.Wants), SeesFS: d.SeesFS}
			}
			return r
		},
	})
	transport.MustRegisterCodec(transport.Codec{
		Name: "spanFetchResp", Class: transport.ClassBulk, Msg: spanFetchResp{}, Wire: wireSpanFetchResp{},
		AppendWire: spanFetchRespAppendWire, DecodeWire: spanFetchRespDecodeWire,
		Encode: func(m transport.Msg) any {
			r := m.(spanFetchResp)
			w := wireSpanFetchResp{Pages: r.Pages}
			if len(r.Diffs) > 0 {
				w.Diffs = make([]wireSpanDiffBundle, len(r.Diffs))
			}
			for i, d := range r.Diffs {
				w.Diffs[i] = wireSpanDiffBundle{Page: d.Page, Keys: toWireKeys(d.Keys), Diffs: d.Diffs}
			}
			return w
		},
		Decode: func(v any) transport.Msg {
			w := v.(wireSpanFetchResp)
			r := spanFetchResp{Pages: w.Pages}
			if len(w.Diffs) > 0 {
				r.Diffs = make([]spanDiffBundle, len(w.Diffs))
			}
			for i, d := range w.Diffs {
				r.Diffs[i] = spanDiffBundle{Page: d.Page, Keys: fromWireKeys(d.Keys), Diffs: d.Diffs}
			}
			return r
		},
	})
	transport.MustRegisterCodec(transport.Codec{
		Name: "acqGrant", Msg: acqGrant{}, Wire: wireAcqGrant{},
		AppendWire: acqGrantAppendWire, DecodeWire: acqGrantDecodeWire,
		Encode: func(m transport.Msg) any {
			r := m.(acqGrant)
			return wireAcqGrant{Intervals: toWireIntervals(r.Intervals), VC: r.VC, NProcs: r.nprocs}
		},
		Decode: func(v any) transport.Msg {
			w := v.(wireAcqGrant)
			return acqGrant{Intervals: fromWireIntervals(w.Intervals), VC: vc.VC(w.VC), nprocs: w.NProcs}
		},
	})
	transport.MustRegisterCodec(transport.Codec{
		Name: "barArrive", Msg: barArrive{}, Wire: wireBarArrive{},
		AppendWire: barArriveAppendWire, DecodeWire: barArriveDecodeWire,
		Encode: func(m transport.Msg) any {
			r := m.(barArrive)
			return wireBarArrive{Epoch: r.Epoch, KnownTS: r.KnownTS,
				Intervals: toWireIntervals(r.Intervals), MemPressure: r.MemPressure, NProcs: r.nprocs}
		},
		Decode: func(v any) transport.Msg {
			w := v.(wireBarArrive)
			return barArrive{Epoch: w.Epoch, KnownTS: w.KnownTS,
				Intervals: fromWireIntervals(w.Intervals), MemPressure: w.MemPressure, nprocs: w.NProcs}
		},
	})
	transport.MustRegisterCodec(transport.Codec{
		Name: "barRelease", Msg: barRelease{}, Wire: wireBarRelease{},
		AppendWire: barReleaseAppendWire, DecodeWire: barReleaseDecodeWire,
		Encode: func(m transport.Msg) any {
			r := m.(barRelease)
			return wireBarRelease{Intervals: toWireIntervals(r.Intervals), Global: r.Global,
				GC: r.GC, Hints: r.Hints, Switches: r.Switches, NProcs: r.nprocs}
		},
		Decode: func(v any) transport.Msg {
			w := v.(wireBarRelease)
			return barRelease{Intervals: fromWireIntervals(w.Intervals), Global: w.Global,
				GC: w.GC, Hints: w.Hints, Switches: w.Switches, nprocs: w.NProcs}
		},
	})
}
