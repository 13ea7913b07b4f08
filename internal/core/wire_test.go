package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoders")

// wireSamples is msgSamples plus the zero value of every registered core
// message, appended last: the empty encodings ride along with the
// interesting shapes in the round-trip, golden and fuzz tests.
func wireSamples() map[string][]transport.Msg {
	samples := msgSamples()
	for _, c := range binaryCodecs() {
		samples[c.Name] = append(samples[c.Name], c.Msg)
	}
	return samples
}

// binaryCodecs lists the registered codecs with binary hooks, sorted by
// name — in this package's test binary, exactly the core messages.
func binaryCodecs() []transport.Codec {
	var cs []transport.Codec
	for _, c := range transport.Codecs() {
		if c.DecodeWire != nil {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	return cs
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

// TestBinaryRoundTrip: for every registered core message, decoding its
// binary encoding yields a message deeply equal to the original — same
// values, same nil-versus-empty slice shapes, same rebuilt interval
// back-pointers. Zero-value edge samples pin the empty-message encodings.
func TestBinaryRoundTrip(t *testing.T) {
	for name, msgs := range wireSamples() {
		for i, m := range msgs {
			if got := binaryRoundTrip(t, m); !reflect.DeepEqual(got, m) {
				t.Errorf("%s[%d]: binary round trip changed the message:\n got %#v\nwant %#v",
					name, i, got, m)
			}
		}
	}
}

// TestWireGolden pins the byte layout of every core encoding. The mesh
// handshake digest (transport.WireDigest) hashes codec names only, so two
// builds whose layouts differ under the same names would mesh and then
// misdecode; this file is what catches such a drift. Each line is codec
// name, sample index (wireSamples order), body length and the FNV-1a 64
// hash of transport.WireBody. After an intended layout change, regenerate
// with: go test ./internal/core -run TestWireGolden -update
func TestWireGolden(t *testing.T) {
	samples := wireSamples()
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# codec sample body-bytes fnv1a64(body)\n")
	for _, name := range names {
		for i, m := range samples[name] {
			body, ok := transport.WireBody(m)
			if !ok {
				t.Fatalf("%s[%d]: no binary codec", name, i)
			}
			h := fnv.New64a()
			h.Write(body)
			fmt.Fprintf(&b, "%s %d %d %016x\n", name, i, len(body), h.Sum64())
		}
	}
	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d: wire layout drifted:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

// checkWireCodec holds one binary codec to its decoding contract on an
// arbitrary frame body: malformed input returns an error without
// panicking, and any accepted input decodes to a message whose diffs keep
// every run inside the page and whose own re-encoding is a fixed point
// (encode∘decode stable, Size() equal to the encoded length unless the
// size is a modelled one) — so a frame that survives validation can be
// applied safely and relayed byte-identically.
func checkWireCodec(t *testing.T, codec transport.Codec, body []byte) {
	m1, err := codec.DecodeWire(body)
	if err != nil {
		return
	}
	for _, d := range msgDiffs(m1) {
		for off, data := range d.Runs() {
			if off < 0 || off+len(data) > mem.PageSize {
				t.Fatalf("%s: decoded a run [%d,%d) outside the page", codec.Name, off, off+len(data))
			}
		}
	}
	b1, ok := transport.WireBody(m1)
	if !ok {
		t.Fatalf("decoded %T lost its binary codec", m1)
	}
	if !modelledSizes[codec.Name] && m1.Size() != len(b1) {
		t.Fatalf("%s: Size()=%d but encoding is %d bytes", codec.Name, m1.Size(), len(b1))
	}
	m2, err := codec.DecodeWire(b1)
	if err != nil {
		t.Fatalf("%s: re-decode of canonical encoding failed: %v", codec.Name, err)
	}
	b2, _ := transport.WireBody(m2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: encoding not a fixed point:\n b1 %x\n b2 %x", codec.Name, b1, b2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("%s: decode of own encoding changed the message:\n m1 %#v\n m2 %#v", codec.Name, m1, m2)
	}
}

// msgDiffs lists the diffs a decoded message carries.
func msgDiffs(m transport.Msg) []*mem.Diff {
	switch m := m.(type) {
	case diffResp:
		return m.Diffs
	case acqGrant:
		return m.Diffs
	case hlrcFlush:
		return m.Diffs
	case spanFetchResp:
		var ds []*mem.Diff
		for _, b := range m.Diffs {
			ds = append(ds, b.Diffs...)
		}
		return ds
	}
	return nil
}

// TestDiffRunOutsidePageRejected: a diff run that leaves the page is a
// malformed frame. Each diff-carrying codec must refuse it at decode time,
// both a run that starts past the page (mem.Diff.Apply would panic on it)
// and one that starts inside and ends past it (Apply would silently
// truncate it).
func TestDiffRunOutsidePageRejected(t *testing.T) {
	k := wnKey{page: 3, proc: 1, ts: 2}
	for _, run := range []struct{ off, n int }{
		{mem.PageSize + 8, 8},
		{mem.PageSize - 4, 8},
	} {
		// A diff of two pages' bytes has the run past the first page.
		twin, cur := make([]byte, 2*mem.PageSize), make([]byte, 2*mem.PageSize)
		cur[64] = 1
		for i := run.off; i < run.off+run.n; i++ {
			cur[i] = 1
		}
		d := mem.MakeDiff(3, twin, cur)
		for _, m := range []transport.Msg{
			diffResp{Diffs: []*mem.Diff{d}, Keys: []wnKey{k}},
			spanFetchResp{Diffs: []spanDiffBundle{{Page: 3, Keys: []wnKey{k}, Diffs: []*mem.Diff{d}}}},
			acqGrant{VC: sampleVC(), nprocs: 8, Diffs: []*mem.Diff{d}, Keys: []wnKey{k}},
			hlrcFlush{VC: sampleVC(), Diffs: []*mem.Diff{d}},
		} {
			c, _ := transport.CodecOf(m)
			body, _ := transport.WireBody(m)
			if got, err := c.DecodeWire(body); err == nil {
				t.Errorf("%s: run at %d+%d decoded without error: %#v", c.Name, run.off, run.n, got)
			}
		}
	}
}

// overlongVarint is a seed whose leading uvarint overflows 64 bits.
var overlongVarint = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

// FuzzCoreWire drives every binary codec in the registry. The first input
// byte picks the codec from the name-sorted list, the rest is the frame
// body handed to checkWireCodec. The seed corpus holds the canonical
// encoding of every sample and zero value, plus an empty and an overlong
// body, for each codec.
func FuzzCoreWire(f *testing.F) {
	codecs := binaryCodecs()
	samples := wireSamples()
	for i, c := range codecs {
		sel := []byte{byte(i)}
		for _, m := range samples[c.Name] {
			body, _ := transport.WireBody(m)
			f.Add(append(sel, body...))
		}
		f.Add(sel)
		f.Add(append(sel, overlongVarint...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		checkWireCodec(t, codecs[int(in[0])%len(codecs)], in[1:])
	})
}

// fuzzWireCodec drives one named codec with arbitrary frame bodies, seeded
// with the canonical encodings of its samples — the per-codec targets kept
// for the payload-bearing messages next to the registry-wide FuzzCoreWire.
func fuzzWireCodec(f *testing.F, name string) {
	var codec transport.Codec
	for _, c := range binaryCodecs() {
		if c.Name == name {
			codec = c
		}
	}
	if codec.DecodeWire == nil {
		f.Fatalf("codec %q has no binary hooks", name)
	}
	for _, m := range msgSamples()[name] {
		body, _ := transport.WireBody(m)
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add(overlongVarint)
	f.Fuzz(func(t *testing.T, body []byte) { checkWireCodec(t, codec, body) })
}

func FuzzDiffRespWire(f *testing.F)      { fuzzWireCodec(f, "diffResp") }
func FuzzSpanFetchRespWire(f *testing.F) { fuzzWireCodec(f, "spanFetchResp") }
func FuzzAcqGrantWire(f *testing.F)      { fuzzWireCodec(f, "acqGrant") }
func FuzzHlrcFlushWire(f *testing.F)     { fuzzWireCodec(f, "hlrcFlush") }
func FuzzCkptPutWire(f *testing.F)       { fuzzWireCodec(f, "ckptPut") }

// hotFrames names the messages the fault, diff, span and lock paths send
// on every operation: the frames whose encode, decode and size cost the
// wire budget is spent on.
var hotFrames = []string{"pageResp", "diffResp", "spanFetchResp", "acqGrant"}

// TestHotFrameWireAllocs pins the hot frames' codec allocations: encoding
// allocates nothing, and decoding only the message's own slices, diffs,
// the three slabs of its interval batch whatever the number of intervals,
// and the interface box that returns it (payloads and a diff's run table
// alias the frame). Each count is at or below the hand-written codecs the
// visitor replaced, whose decoders also kept a list of payload lengths,
// one per diff below the run lists diffs had before their run tables, and
// six below the four objects per interval plus one per notice a grant's
// two sample intervals decoded into before the batch.
func TestHotFrameWireAllocs(t *testing.T) {
	want := map[string][]float64{
		"pageResp":      {2},
		"diffResp":      {5},
		"spanFetchResp": {3, 11},
		"acqGrant":      {6, 2, 6, 10, 9, 10},
	}
	samples := msgSamples()
	for _, name := range hotFrames {
		for i, m := range samples[name] {
			c, _ := transport.CodecOf(m)
			body, _ := transport.WireBody(m)
			meta, iov := make([]byte, 0, len(body)), make([][]byte, 0, 16)
			if got := testing.AllocsPerRun(100, func() { meta, iov = c.AppendWire(m, meta[:0], iov[:0]) }); got != 0 {
				t.Errorf("%s[%d]: encode allocates %.1f times, want 0", name, i, got)
			}
			got := testing.AllocsPerRun(100, func() {
				if _, err := c.DecodeWire(body); err != nil {
					t.Fatal(err)
				}
			})
			if got != want[name][i] {
				t.Errorf("%s[%d]: decode allocates %.1f times, want %.0f", name, i, got, want[name][i])
			}
		}
	}
}

// BenchmarkCoreWire times the encode, decode and size passes of every
// msgSamples entry of the hot frames.
func BenchmarkCoreWire(b *testing.B) {
	samples := msgSamples()
	for _, name := range hotFrames {
		for i, m := range samples[name] {
			c, _ := transport.CodecOf(m)
			body, _ := transport.WireBody(m)
			meta, iov := make([]byte, 0, len(body)), make([][]byte, 0, 16)
			b.Run(fmt.Sprintf("%s/%d/encode", name, i), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					meta, iov = c.AppendWire(m, meta[:0], iov[:0])
				}
			})
			b.Run(fmt.Sprintf("%s/%d/decode", name, i), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := c.DecodeWire(body); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%d/size", name, i), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					_ = m.Size()
				}
			})
		}
	}
}

// TestCounterDiffOneStretch: a page of int64 counters that each grew by 4
// changes only the low word of every value, so it diffs into 512 runs of
// four bytes. They are cut from one buffer, so the encoder hands the
// socket one payload slice for all of them, the decoder cuts them back
// out of one stretch of the frame, and Detach copies that stretch in one
// piece, into one allocation.
func TestCounterDiffOneStretch(t *testing.T) {
	twin, cur := mem.NewPage(), mem.NewPage()
	for off := 0; off < mem.PageSize; off += 8 {
		mem.StoreUint64(twin, off, uint64(off))
		mem.StoreUint64(cur, off, uint64(off)+4)
	}
	d := mem.MakeDiff(3, twin, cur)
	if d.NumRuns() != mem.PageSize/8 {
		t.Fatalf("diff has %d runs, want %d", d.NumRuns(), mem.PageSize/8)
	}
	m := diffResp{Diffs: []*mem.Diff{d}, Keys: []wnKey{{page: 3, proc: 1, ts: 2}}}
	c, _ := transport.CodecOf(m)
	if _, payloads := c.AppendWire(m, nil, nil); len(payloads) > 2 {
		t.Errorf("encode hands the socket %d payload slices, want at most 2", len(payloads))
	}
	got := binaryRoundTrip(t, m)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip changed the message")
	}
	rd := got.(diffResp).Diffs[0]
	if allocs := testing.AllocsPerRun(10, rd.Detach); allocs != 1 {
		t.Errorf("Detach allocates %.0f times, want 1", allocs)
	}
	page := mem.Twin(twin)
	rd.Apply(page)
	if !bytes.Equal(page, cur) {
		t.Errorf("the detached diff does not rebuild the page")
	}
	if _, payloads := c.AppendWire(got, nil, nil); len(payloads) > 2 {
		t.Errorf("re-encoding the detached diff hands the socket %d payload slices, want at most 2", len(payloads))
	}
}

// TestDiffDecodeAllocsFlat: decoding a diff costs the same allocations
// whatever its run count, as its run table stays in the frame: the
// 512-run page of TestCounterDiffOneStretch decodes with as many as a
// one-run diff.
func TestDiffDecodeAllocsFlat(t *testing.T) {
	twin, cur := mem.NewPage(), mem.NewPage()
	for off := 0; off < mem.PageSize; off += 8 {
		mem.StoreUint64(twin, off, uint64(off))
		mem.StoreUint64(cur, off, uint64(off)+4)
	}
	many := mem.MakeDiff(3, twin, cur)
	cur = mem.Twin(twin)
	mem.StoreUint64(cur, 64, 9)
	one := mem.MakeDiff(3, twin, cur)
	allocs := func(d *mem.Diff) float64 {
		m := diffResp{Diffs: []*mem.Diff{d}, Keys: []wnKey{{page: 3, proc: 1, ts: 2}}}
		c, _ := transport.CodecOf(m)
		body, _ := transport.WireBody(m)
		return testing.AllocsPerRun(50, func() {
			if _, err := c.DecodeWire(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if many.NumRuns() != 512 || one.NumRuns() != 1 {
		t.Fatalf("diffs of %d and %d runs, want 512 and 1", many.NumRuns(), one.NumRuns())
	}
	if a512, a1 := allocs(many), allocs(one); a512 != a1 {
		t.Errorf("a 512-run diff decodes with %.0f allocations, a 1-run diff with %.0f", a512, a1)
	}
}

// TestDiffEncodedSizeIsWireLength: a diff's EncodedSize is the length the
// wire encoder gives it, as MakeDiff makes it, as a decoder reads it back
// and after Detach, from a lone word to a rewritten page.
func TestDiffEncodedSizeIsWireLength(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	encoded := func(d *mem.Diff) int {
		var w wireRW
		w.mode = wireEncode
		w.diff(&d)
		n := len(w.b)
		for _, p := range w.p {
			n += len(p)
		}
		return n
	}
	for i := 0; i < 300; i++ {
		twin := mem.NewPage()
		rng.Read(twin)
		cur := mem.Twin(twin)
		pStart, pStay := rng.Float64()*rng.Float64(), rng.Float64()
		for off, in := 0, false; off < mem.PageSize; off += mem.WordSize {
			p := pStart
			if in {
				p = pStay
			}
			if in = rng.Float64() < p; in {
				cur[off+rng.Intn(mem.WordSize)] ^= byte(1 + rng.Intn(255))
			}
		}
		check := func(what string, d *mem.Diff) {
			if n := encoded(d); d.EncodedSize() != n {
				t.Fatalf("case %d, %s diff of %d runs: EncodedSize %d, encoded to %d bytes", i, what, d.NumRuns(), d.EncodedSize(), n)
			}
		}
		made := mem.MakeDiff(rng.Intn(1<<20), twin, cur)
		check("made", made)
		got := binaryRoundTrip(t, diffResp{Diffs: []*mem.Diff{made}, Keys: []wnKey{{page: 1, proc: 1, ts: 1}}})
		read := got.(diffResp).Diffs[0]
		check("decoded", read)
		read.Detach()
		check("detached", read)
	}
}
