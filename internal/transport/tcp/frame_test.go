package tcp

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"adsm/internal/transport"
)

// bmsg is a registered test message with binary wire hooks: varint
// metadata plus a raw payload section, the same shape as the protocol's
// page and diff carriers. Registered in init (before any transport use),
// so it gets a frozen wire id like the real hot messages.
type bmsg struct {
	N    int
	Data []byte
}

func (m bmsg) Size() int {
	return transport.UvarintLen(uint64(m.N)) +
		transport.UvarintLen(uint64(len(m.Data))) + len(m.Data)
}

func bmsgAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(bmsg)
	b = transport.AppendUvarint(b, uint64(r.N))
	b = transport.AppendUvarint(b, uint64(len(r.Data)))
	return b, append(payloads, r.Data)
}

func bmsgDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	var m bmsg
	m.N = r.Int()
	m.Data = r.Bytes(r.Count(1))
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

func init() {
	transport.MustRegisterCodec(transport.Codec{
		Name: "tcptest.bmsg", Msg: bmsg{},
		AppendWire: bmsgAppendWire, DecodeWire: bmsgDecodeWire,
	})
}

// roundTripFrame encodes f, writes it through the vectored-write path into
// a buffer, and reads it back — the full framing path minus the socket.
func roundTripFrame(t testing.TB, f *frame) *frame {
	t.Helper()
	of, err := encodeFrame(f)
	if err != nil {
		t.Fatalf("encodeFrame: %v", err)
	}
	var buf bytes.Buffer
	if err := writeOut(&buf, of); err != nil {
		t.Fatalf("writeOut: %v", err)
	}
	if buf.Len() != of.wire {
		t.Fatalf("outFrame.wire=%d but %d bytes were written", of.wire, buf.Len())
	}
	f2, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("readFrame left %d trailing bytes", buf.Len())
	}
	return f2
}

// TestFrameRoundTripKinds pins the frame format for every body kind: a
// binary-coded message, a message of a hookless codec (the gob escape), an
// error reply, a hello handshake and a bodiless bye must all survive
// encode→vectored write→read with every header field and the message value
// intact.
func TestFrameRoundTripKinds(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	cases := []struct {
		name string
		f    *frame
	}{
		{"binary", &frame{Op: opCall, From: 1, To: 2, Origin: 1, CallID: 77, Idx: 3,
			M: bmsg{N: 9000, Data: payload}}},
		{"binary-empty", &frame{Op: opReply, From: 2, To: 1, Origin: 1, CallID: 78,
			M: bmsg{}}},
		{"gob-fallback", &frame{Op: opReply, From: 0, To: 3, Origin: 3, CallID: 80, Idx: 1,
			M: tmsg{N: 42, S: "hello"}}},
		{"err", &frame{Op: opReply, From: 0, To: 1, Origin: 1, CallID: 81,
			Err: "tcp: something broke"}},
		{"hello", &frame{Op: opHello, From: 4, To: 0, Tag: "sor/mw/8",
			Digest: 0xdeadbeefcafe}},
		{"hello-reject", &frame{Op: opHello, From: 4, To: 0, Tag: "sor/mw/8",
			Digest: 1, Err: "mismatch"}},
		{"bye", &frame{Op: opBye, From: 1, To: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := roundTripFrame(t, tc.f)
			if !reflect.DeepEqual(got, tc.f) {
				t.Errorf("frame changed in round trip:\n got %+v\nwant %+v", got, tc.f)
			}
		})
	}
}

// TestBinaryFrameEncodeAllocs asserts the hot-path budget: encoding a
// binary frame with a 4 KB payload must not allocate (≤1 alloc/frame
// allowed for pool jitter). The payload travels by reference into the
// iovec list and the header+metadata reuse the pooled buffer, so the
// steady state is allocation-free.
func TestBinaryFrameEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation randomly drops sync.Pool puts, inflating the alloc count")
	}
	payload := make([]byte, 4096)
	f := &frame{Op: opCall, From: 1, To: 2, Origin: 1, CallID: 1, M: bmsg{N: 7, Data: payload}}
	// Warm the pool and the iovec capacity.
	for i := 0; i < 8; i++ {
		of, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		of.fb.recycle()
	}
	avg := testing.AllocsPerRun(100, func() {
		of, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		of.fb.recycle()
	})
	if avg > 1 {
		t.Errorf("binary frame encode allocates %.1f times per frame (budget ≤1)", avg)
	}
}

// TestEscapeFrameMesh runs a real loopback mesh carrying a message whose
// codec has no binary hooks (tmsg): it must travel in gob escape frames
// and arrive intact — the path a foreign hookless codec, such as the
// benchmark's gob round-trip probe, takes.
func TestEscapeFrameMesh(t *testing.T) {
	if _, ok := transport.WireIDOf(tmsg{}); ok {
		t.Fatal("tmsg has a binary wire id; the test needs a hookless codec")
	}
	rt, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	rt.Register(1, func(c transport.Call, from int, m transport.Msg) {
		r := m.(tmsg)
		c.Reply(tmsg{N: r.N + 1, S: r.S + "!"})
	})
	var ok atomic.Bool
	rt.Spawn(0, "n0", func(p transport.Proc) {
		r := rt.Call(p, 1, tmsg{N: 1, S: "escape"}).(tmsg)
		if r.N != 2 || r.S != "escape!" {
			t.Errorf("escape-frame call returned %+v", r)
		}
		ok.Store(true)
	})
	rt.Spawn(1, "n1", func(p transport.Proc) {})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok.Load() {
		t.Fatal("body did not complete")
	}
	if counts(rt).WireFrames == 0 || counts(rt).WireBytes == 0 {
		t.Errorf("wire counters empty: %d frames, %d bytes", counts(rt).WireFrames, counts(rt).WireBytes)
	}
}
