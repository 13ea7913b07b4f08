package core

import "adsm/internal/transport"

// The codec registry: every protocol message's wire name, lane class and
// binary hooks, so real transports (internal/transport/tcp) can carry it.
// Both hooks run the message's one wire method (msgs.go): the encoder once,
// the decoder twice (metadata, then payload fill; see wire.go). Each row
// spells them as two closures over the concrete type, so the method is a
// static call and the visitor and the message copy stay on the stack
// (through a generic dictionary both would escape to the heap).

type msg = transport.Msg // short enough to keep each hook on one line

func init() {
	ctl, bulk := transport.ClassControl, transport.ClassBulk
	reg(ctl, "pageReq", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(pageReq); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v pageReq; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(bulk, "pageResp", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(pageResp); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v pageResp; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "diffReq", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(diffReq); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v diffReq; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(bulk, "diffResp", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(diffResp); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v diffResp; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "spanFetchReq", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(spanFetchReq); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v spanFetchReq; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(bulk, "spanFetchResp", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(spanFetchResp); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v spanFetchResp; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "ownReq", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(ownReq); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v ownReq; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "ownResp", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(ownResp); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v ownResp; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "swOwnReq", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(swOwnReq); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v swOwnReq; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "swOwnGrant", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(swOwnGrant); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v swOwnGrant; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "hlrcFlush", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(hlrcFlush); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v hlrcFlush; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "hlrcAck", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(hlrcAck); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v hlrcAck; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "homeBindReq", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(homeBindReq); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v homeBindReq; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "homeBindResp", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(homeBindResp); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v homeBindResp; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "acqReq", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(acqReq); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v acqReq; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "acqFwd", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(acqFwd); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v acqFwd; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "acqGrant", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(acqGrant); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v acqGrant; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "acqRevoke", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(acqRevoke); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v acqRevoke; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "barArrive", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(barArrive); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v barArrive; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "barRelease", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(barRelease); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v barRelease; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(bulk, "ckptPut", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(ckptPut); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v ckptPut; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "ckptAck", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(ckptAck); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v ckptAck; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "recArrive", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(recArrive); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v recArrive; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "recRelease", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(recRelease); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v recRelease; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "recProtoArrive", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(recProtoArrive); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v recProtoArrive; v.wire(&w); v.wire(w.fill()); return v, w.done() })
	reg(ctl, "recProtoRelease", func(m msg, w wireRW) ([]byte, [][]byte) { v := m.(recProtoRelease); v.wire(&w); return w.b, w.p },
		func(w wireRW) (msg, error) { var v recProtoRelease; v.wire(&w); v.wire(w.fill()); return v, w.done() })
}

// reg registers one message from its encode and decode closures. The
// decoder run over nothing in fill mode yields the zero message, the
// registry's sample of the type.
func reg(class transport.Class, name string,
	enc func(msg, wireRW) ([]byte, [][]byte), dec func(wireRW) (msg, error)) {
	zero, _ := dec(wireRW{mode: wireFill})
	transport.MustRegisterCodec(transport.Codec{Name: name, Class: class, Msg: zero,
		AppendWire: func(m msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
			return enc(m, wireRW{mode: wireEncode, b: b, p: payloads})
		},
		DecodeWire: func(body []byte) (msg, error) {
			m, err := dec(wireRW{mode: wireDecode, b: body, r: *transport.NewWireReader(body)})
			if err != nil {
				return nil, err
			}
			return m, nil
		},
	})
}
