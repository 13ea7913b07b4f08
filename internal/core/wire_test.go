package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"adsm/internal/transport"
)

// gobRoundTrip pushes m through the transport's gob escape path — encode
// to the wire form, gob over a fresh stream, decode back — exactly as a
// tcp frame with the bodyGob kind travels.
func gobRoundTrip(t testing.TB, m transport.Msg) transport.Msg {
	t.Helper()
	v, err := transport.EncodeMsg(m)
	if err != nil {
		t.Fatalf("%T: EncodeMsg: %v", m, err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("%T: gob encode: %v", m, err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("%T: gob decode: %v", m, err)
	}
	m2, err := transport.DecodeMsg(out)
	if err != nil {
		t.Fatalf("%T: DecodeMsg: %v", m, err)
	}
	return m2
}

// binaryRoundTrip pushes m through its hand-rolled binary codec — the
// frame body a tcp frame with the bodyBinary kind carries.
func binaryRoundTrip(t testing.TB, m transport.Msg) transport.Msg {
	t.Helper()
	body, ok := transport.WireBody(m)
	if !ok {
		t.Fatalf("%T has no binary codec", m)
	}
	id, ok := transport.WireIDOf(m)
	if !ok {
		t.Fatalf("%T has no frozen wire id", m)
	}
	c, ok := transport.WireCodecByID(id)
	if !ok {
		t.Fatalf("%T: wire id %d does not resolve", m, id)
	}
	m2, err := c.DecodeWire(body)
	if err != nil {
		t.Fatalf("%T: DecodeWire: %v", m, err)
	}
	return m2
}

// TestBinaryRoundTripMatchesGob is the property pinning the binary wire
// format to the gob escape form that ForceGob still selects: for every
// registered core message, decoding the binary encoding must yield a
// message deeply equal to what a gob round trip yields — same values, same
// nil-versus-empty slice shapes, same rebuilt interval back-pointers.
// Zero-value edge samples ride along to pin the empty-message encodings.
func TestBinaryRoundTripMatchesGob(t *testing.T) {
	samples := msgSamples()
	edges := []transport.Msg{
		pageReq{}, pageResp{}, diffReq{}, diffResp{},
		spanFetchReq{}, spanFetchResp{}, ownReq{}, ownResp{},
		swOwnReq{}, swOwnGrant{}, barArrive{}, barRelease{},
		regionReadReq{}, regionReadResp{}, regionSpanReq{}, regionSpanResp{},
		ownBatchReq{}, ownBatchResp{},
		acqReq{}, acqFwd{}, acqGrant{}, hlrcFlush{}, hlrcAck{},
		homeBindReq{}, homeBindResp{}, ckptPut{}, ckptAck{},
		recArrive{}, recRelease{}, recProtoArrive{}, recProtoRelease{},
	}
	for _, m := range edges {
		name := reflect.TypeOf(m).Name()
		samples[name] = append(samples[name], m)
	}

	for name, msgs := range samples {
		for i, m := range msgs {
			viaGob := gobRoundTrip(t, m)
			if !reflect.DeepEqual(viaGob, m) {
				t.Errorf("%s[%d]: gob round trip changed the message:\n got %#v\nwant %#v",
					name, i, viaGob, m)
			}
			viaBinary := binaryRoundTrip(t, m)
			if !reflect.DeepEqual(viaBinary, viaGob) {
				t.Errorf("%s[%d]: binary and gob round trips disagree:\n binary %#v\n    gob %#v",
					name, i, viaBinary, viaGob)
			}
		}
	}
}

// fuzzWireCodec drives one binary codec with arbitrary frame bodies,
// seeded with the canonical encodings of the sample messages. Two
// properties must hold: malformed input returns an error without
// panicking, and any accepted input decodes to a message whose own
// re-encoding is a fixed point (encode∘decode stable, Size() equal to the
// encoded length unless the size is a modelled one) — so a frame that
// survives validation can be relayed byte-identically.
func fuzzWireCodec(f *testing.F, name string) {
	var codec transport.Codec
	for _, c := range transport.Codecs() {
		if c.Name == name {
			codec = c
		}
	}
	if codec.DecodeWire == nil {
		f.Fatalf("codec %q has no binary hooks", name)
	}
	for _, m := range msgSamples()[name] {
		body, ok := transport.WireBody(m)
		if !ok {
			f.Fatalf("sample %T has no binary encoding", m)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		m1, err := codec.DecodeWire(body)
		if err != nil {
			return
		}
		b1, ok := transport.WireBody(m1)
		if !ok {
			t.Fatalf("decoded %T lost its binary codec", m1)
		}
		if !modelledSizes[name] && m1.Size() != len(b1) {
			t.Fatalf("Size()=%d but encoding is %d bytes", m1.Size(), len(b1))
		}
		m2, err := codec.DecodeWire(b1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		b2, _ := transport.WireBody(m2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encoding not a fixed point:\n b1 %x\n b2 %x", b1, b2)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("decode of own encoding changed the message:\n m1 %#v\n m2 %#v", m1, m2)
		}
	})
}

func FuzzDiffRespWire(f *testing.F)       { fuzzWireCodec(f, "diffResp") }
func FuzzSpanFetchRespWire(f *testing.F)  { fuzzWireCodec(f, "spanFetchResp") }
func FuzzRegionReadRespWire(f *testing.F) { fuzzWireCodec(f, "regionReadResp") }
func FuzzRegionSpanRespWire(f *testing.F) { fuzzWireCodec(f, "regionSpanResp") }
func FuzzAcqGrantWire(f *testing.F)       { fuzzWireCodec(f, "acqGrant") }
func FuzzHlrcFlushWire(f *testing.F)      { fuzzWireCodec(f, "hlrcFlush") }
func FuzzCkptPutWire(f *testing.F)        { fuzzWireCodec(f, "ckptPut") }

// TestRegionMessagesMirrorHandlerSizes pins the count-equivalence design of
// the one-sided path: a served region read must charge the traffic counters
// exactly what the handler path would have charged, so each region message's
// encoding must be byte-length-identical to the request/response pair it
// replaces. If these drift, -onesided runs stop being byte-comparable to
// handler-path runs and the equivalence suites lose their teeth.
func TestRegionMessagesMirrorHandlerSizes(t *testing.T) {
	pairs := []struct {
		name   string
		region transport.Msg
		mirror transport.Msg
	}{
		{"read req", regionReadReq{Page: 9000, Hops: 3}, pageReq{Page: 9000, Hops: 3}},
		{"read resp", regionReadResp{Data: make([]byte, 4096), Applied: sampleVC()},
			pageResp{Data: make([]byte, 4096), Applied: sampleVC()}},
		{"span req", regionSpanReq{Pages: []int{4, 5, 600}},
			spanFetchReq{Pages: []int{4, 5, 600}}},
		{"span resp",
			regionSpanResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
				{Page: 600, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
			}},
			spanFetchResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
				{Page: 600, Served: true, Data: make([]byte, 4096), Applied: sampleVC()},
			}}},
	}
	for _, p := range pairs {
		rb, ok := transport.WireBody(p.region)
		if !ok {
			t.Fatalf("%s: region message has no binary codec", p.name)
		}
		mb, ok := transport.WireBody(p.mirror)
		if !ok {
			t.Fatalf("%s: mirrored message has no binary codec", p.name)
		}
		if len(rb) != len(mb) {
			t.Errorf("%s: region encoding is %d bytes, handler-path mirror is %d",
				p.name, len(rb), len(mb))
		}
		if p.region.Size() != p.mirror.Size() {
			t.Errorf("%s: region Size()=%d, handler-path mirror Size()=%d",
				p.name, p.region.Size(), p.mirror.Size())
		}
	}
}
