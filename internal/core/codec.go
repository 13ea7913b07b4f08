package core

import "adsm/internal/transport"

// Wire encodings for every protocol message, registered with the transport
// codec registry so real transports (internal/transport/tcp) can carry
// them. Each message has exactly one encoding: the hand-rolled binary hooks
// in wire.go. Nothing here rides the transport's gob escape frame — an acq*
// triple is on every remote acquire and an hlrcFlush on every HLRC release,
// so there is no cold path worth a reflective encoder.
//
// The simulator passes messages by reference and never touches these; the
// round-trip, golden-bytes and fuzz tests pin the encodings, and the
// sim/tcp equivalence harness pins the two transports to each other.

func init() {
	self := func(class transport.Class, name string, m transport.Msg,
		aw func(transport.Msg, []byte, [][]byte) ([]byte, [][]byte),
		dw func([]byte) (transport.Msg, error)) {
		transport.MustRegisterCodec(transport.Codec{Name: name, Class: class, Msg: m, AppendWire: aw, DecodeWire: dw})
	}
	ctl, bulk, region := transport.ClassControl, transport.ClassBulk, transport.ClassRegion
	self(ctl, "pageReq", pageReq{}, pageReqAppendWire, pageReqDecodeWire)
	self(bulk, "pageResp", pageResp{}, pageRespAppendWire, pageRespDecodeWire)
	self(ctl, "diffReq", diffReq{}, diffReqAppendWire, diffReqDecodeWire)
	self(bulk, "diffResp", diffResp{}, diffRespAppendWire, diffRespDecodeWire)
	self(ctl, "spanFetchReq", spanFetchReq{}, spanFetchReqAppendWire, spanFetchReqDecodeWire)
	self(bulk, "spanFetchResp", spanFetchResp{}, spanFetchRespAppendWire, spanFetchRespDecodeWire)
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
	self(ctl, "acqGrant", acqGrant{}, acqGrantAppendWire, acqGrantDecodeWire)
	self(ctl, "acqRevoke", acqRevoke{}, acqRevokeAppendWire, acqRevokeDecodeWire)
	self(ctl, "barArrive", barArrive{}, barArriveAppendWire, barArriveDecodeWire)
	self(ctl, "barRelease", barRelease{}, barReleaseAppendWire, barReleaseDecodeWire)
	self(bulk, "ckptPut", ckptPut{}, ckptPutAppendWire, ckptPutDecodeWire)
	self(ctl, "ckptAck", ckptAck{}, ckptAckAppendWire, ckptAckDecodeWire)
	self(ctl, "recArrive", recArrive{}, recArriveAppendWire, recArriveDecodeWire)
	self(ctl, "recRelease", recRelease{}, recReleaseAppendWire, recReleaseDecodeWire)
	self(ctl, "recProtoArrive", recProtoArrive{}, recProtoArriveAppendWire, recProtoArriveDecodeWire)
	self(ctl, "recProtoRelease", recProtoRelease{}, recProtoReleaseAppendWire, recProtoReleaseDecodeWire)
}
