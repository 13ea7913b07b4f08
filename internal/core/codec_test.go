package core

import (
	"strings"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// sampleDiff builds a diff with the given number of modified bytes.
func sampleDiff(pg, bytes int) *mem.Diff {
	twin := mem.NewPage()
	cur := mem.NewPage()
	for i := 0; i < bytes; i++ {
		cur[64+i] = byte(i + 1)
	}
	return mem.MakeDiff(pg, twin, cur)
}

func sampleVC() vc.VC { return vc.VC{3, 1, 4, 1, 5, 9, 2, 6} }

func sampleIntervals() []*Interval {
	iv1 := &Interval{Proc: 2, TS: 7, VC: sampleVC()}
	iv1.WNs = []*WriteNotice{
		{Page: 5, Int: iv1, Owner: false, DataHint: 800},
		{Page: 9, Int: iv1, Owner: true, Version: 3},
	}
	iv2 := &Interval{Proc: 0, TS: 4, VC: sampleVC()}
	iv2.WNs = []*WriteNotice{{Page: 1, Int: iv2, Owner: false, DataHint: 96}}
	return []*Interval{iv1, iv2}
}

// msgSamples returns representative values of every registered core
// message — the shared table behind the wire-size audit, the binary/gob
// round-trip equivalence test and the fuzz seed corpus. Each entry
// exercises the message's interesting shapes (payloads, piggybacked
// intervals, unserved/denied variants).
func msgSamples() map[string][]transport.Msg {
	nprocs := 8
	return map[string][]transport.Msg{
		"pageReq":  {pageReq{Page: 17}, pageReq{Page: 9000, Hops: 3}},
		"pageResp": {pageResp{Data: mem.NewPage(), Applied: sampleVC()}},
		"diffReq": {diffReq{Page: 4, Wants: []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}},
			SeesFS: true}},
		"diffResp": {diffResp{
			Diffs: []*mem.Diff{sampleDiff(4, 1000), sampleDiff(4, 24)},
			Keys:  []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}},
		}},
		"spanFetchReq": {
			spanFetchReq{Pages: []int{4, 5, 6}},
			spanFetchReq{
				Pages: []int{9},
				Diffs: []spanDiffWant{
					{Page: 4, Wants: []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}}, SeesFS: true},
					{Page: 5, Wants: []wnKey{{page: 5, proc: 2, ts: 7}}},
				},
			},
		},
		"spanFetchResp": {
			spanFetchResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: mem.NewPage(), Applied: sampleVC()},
				{Page: 5}, // unserved: ownership transition in flight
			}},
			spanFetchResp{
				Pages: []spanPageCopy{{Page: 9, Served: true, Data: mem.NewPage(), Applied: sampleVC()}},
				Diffs: []spanDiffBundle{
					{Page: 4, Keys: []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}},
						Diffs: []*mem.Diff{sampleDiff(4, 1000), sampleDiff(4, 24)}},
					{Page: 5, Keys: []wnKey{{page: 5, proc: 2, ts: 7}},
						Diffs: []*mem.Diff{sampleDiff(5, 640)}},
				},
			},
		},
		"regionReadReq": {regionReadReq{Page: 17}, regionReadReq{Page: 9000, Hops: 3}},
		"regionReadResp": {
			regionReadResp{Data: mem.NewPage(), Applied: sampleVC()},
			regionReadResp{}, // miss: page not published
		},
		"regionSpanReq": {regionSpanReq{Pages: []int{4, 5, 6}}, regionSpanReq{Pages: []int{9}}},
		"regionSpanResp": {
			regionSpanResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: mem.NewPage(), Applied: sampleVC()},
				{Page: 5, Served: true, Data: mem.NewPage(), Applied: sampleVC()},
			}},
			regionSpanResp{}, // miss: some page in the span not published
		},
		"ownReq": {ownReq{Page: 11, Version: 5, NeedPage: true, Applied: sampleVC()}},
		"ownBatchReq": {ownBatchReq{Reqs: []ownReq{
			{Page: 11, Version: 5, NeedPage: true, Applied: sampleVC()},
			{Page: 12, Version: 0, Applied: sampleVC()},
		}}},
		"ownBatchResp": {ownBatchResp{Resps: []ownResp{
			{Granted: true, Version: 6, Data: mem.NewPage(), Applied: sampleVC()},
			{Granted: false, Version: 6},
		}}},
		"ownResp": {
			ownResp{Granted: true, Version: 6, Data: mem.NewPage(), Applied: sampleVC()},
			ownResp{Granted: false, Version: 6},
		},
		"swOwnReq":   {swOwnReq{Page: 3, Hops: 1}},
		"swOwnGrant": {swOwnGrant{Version: 9, Data: mem.NewPage(), Applied: sampleVC()}},
		"hlrcFlush": {
			hlrcFlush{VC: sampleVC(), Entries: []hlrcEntry{
				{Page: 2, Diff: sampleDiff(2, 640)},
				{Page: 7, Diff: sampleDiff(7, 48)},
			}},
			// An emptied diff (the omittable-write pass leaves zero runs).
			hlrcFlush{VC: sampleVC(), Entries: []hlrcEntry{{Page: 300, Diff: &mem.Diff{Page: 300}}}},
		},
		"hlrcAck":      {hlrcAck{}},
		"homeBindReq":  {homeBindReq{Page: 12}, homeBindReq{Page: 9000}},
		"homeBindResp": {homeBindResp{Home: 5}},
		"acqReq":       {acqReq{Lock: 7, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}}},
		"acqFwd":       {acqFwd{Lock: 7, Origin: 2, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}}},
		"acqGrant": {
			acqGrant{Intervals: sampleIntervals(), VC: sampleVC(), nprocs: nprocs},
			// The steady-state grant: the requester lacks nothing.
			acqGrant{VC: sampleVC(), nprocs: nprocs},
		},
		"barArrive": {barArrive{Epoch: 12, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6},
			Intervals: sampleIntervals(), MemPressure: true, nprocs: nprocs}},
		"ckptPut": {
			ckptPut{From: 1, Step: 4, Pages: []ckptPage{
				{Page: 3, Data: mem.NewPage(), Proto: 0, Sum: 12345},
				{Page: 7, Data: mem.NewPage(), Proto: 4, Sum: 99},
			}},
			ckptPut{From: 2, Step: 6}, // nothing dirty in the partition
		},
		"ckptAck": {ckptAck{}},
		"recArrive": {
			recArrive{Node: 2, OwnCommitted: 4, OwnPending: 5, RepCommitted: 4, RepPending: 5},
			// A wiped store: -1 means "no checkpoint" in every slot.
			recArrive{Node: 1, OwnCommitted: -1, OwnPending: -1, RepCommitted: -1, RepPending: -1},
		},
		"recRelease": {
			recRelease{Step: 4, Restorer: []int{0, 1, 2, 3}},
			recRelease{Step: -1}, // nothing ever committed
		},
		"recProtoArrive": {recProtoArrive{Node: 1, Switches: []policySwitch{
			{Page: 2, Proto: 4, Owner: 1, Version: 1}, {Page: 5, Proto: 0, Owner: 1, Version: 1}}}},
		"recProtoRelease": {recProtoRelease{Switches: []policySwitch{
			{Page: 2, Proto: 4, Owner: 1, Version: 1}}}},
		"barRelease": {
			barRelease{Intervals: sampleIntervals(), Global: []int32{3, 1, 4, 1, 5, 9, 2, 6},
				GC: true, Hints: []gcHint{{Page: 1, Owner: 2, Version: 3}, {Page: 9, Owner: 0, Version: 1}},
				nprocs: nprocs},
			barRelease{Global: []int32{3, 1, 4, 1, 5, 9, 2, 6},
				Switches: []policySwitch{{Page: 2, Proto: 0, Owner: 1, Version: 4}, {Page: 6, Proto: 4, Owner: 0, Version: 0}},
				nprocs:   nprocs},
		},
	}
}

// TestMessageLaneClasses pins each hot message's codec class — the key the
// tcp runtime selects lanes with. Large payload carriers must be bulk (so
// they ride the bulk lane and cannot head-of-line block barrier or
// ownership traffic), every request and control-plane message must stay on
// the control lane (requests must never reorder against the grants and
// releases they race with), and the one-sided messages get the region lane.
func TestMessageLaneClasses(t *testing.T) {
	want := map[transport.Class][]transport.Msg{
		transport.ClassControl: {
			pageReq{}, diffReq{}, spanFetchReq{}, ownReq{}, ownResp{},
			ownBatchReq{}, ownBatchResp{}, swOwnReq{}, swOwnGrant{},
			barArrive{}, barRelease{}, acqReq{}, acqFwd{}, acqGrant{},
			hlrcFlush{}, hlrcAck{}, homeBindReq{}, homeBindResp{},
			ckptAck{}, recArrive{}, recRelease{}, recProtoArrive{}, recProtoRelease{},
		},
		transport.ClassBulk:   {pageResp{}, diffResp{}, spanFetchResp{}, ckptPut{}},
		transport.ClassRegion: {regionReadReq{}, regionReadResp{}, regionSpanReq{}, regionSpanResp{}},
	}
	for class, msgs := range want {
		for _, m := range msgs {
			if got := transport.ClassOf(m); got != class {
				t.Errorf("%T: class %v, want %v", m, got, class)
			}
		}
	}
}

// modelledSizes names the messages whose Size() is still the cost model's
// figure, not their binary length: the simulator's virtual times (every
// BENCH cell) were calibrated with these, so moving them to the exact
// lengths is a re-baseline of its own. Everything else is pinned exactly.
var modelledSizes = map[string]bool{
	"acqReq": true, "acqFwd": true, "acqGrant": true,
	"hlrcFlush": true, "hlrcAck": true,
	"homeBindReq": true, "homeBindResp": true,
}

// TestMsgSizeMatchesWire audits every registered protocol message against
// what the wire actually moves: the binary frame body. Size() must equal
// it byte for byte — the cost model, the traffic counters and the real
// transport all speak the same encoding — except for modelledSizes, whose
// declared size must track the body within 10% plus a fixed 96-byte
// allowance (the rule that held them to the gob payload before they had
// binary codecs). A failure here means a Size() method drifted from what
// the wire moves.
func TestMsgSizeMatchesWire(t *testing.T) {
	covered := map[string]bool{}
	for name, msgs := range msgSamples() {
		covered[name] = true
		for _, m := range msgs {
			declared := m.Size()
			body, ok := transport.WireBody(m)
			if !ok {
				t.Errorf("%s: no binary codec", name)
				continue
			}
			if !modelledSizes[name] {
				if declared != len(body) {
					t.Errorf("%s: declared Size()=%d but binary wire body is %d bytes",
						name, declared, len(body))
				}
				continue
			}
			slack := len(body)/10 + 96
			drift := declared - len(body)
			if drift < 0 {
				drift = -drift
			}
			if drift > slack {
				t.Errorf("%s: modelled Size()=%d but binary wire body is %d bytes (drift %d > allowed %d)",
					name, declared, len(body), drift, slack)
			} else {
				t.Logf("%s: modelled %d, wire %d", name, declared, len(body))
			}
		}
	}

	// The table must pin every registered core message type: a protocol
	// that adds a message without a sample here fails the audit. Codecs
	// registered by other packages use dotted names and are exempt.
	for _, c := range transport.Codecs() {
		if !covered[c.Name] && !strings.Contains(c.Name, ".") {
			t.Errorf("registered codec %q has no wire-size sample", c.Name)
		}
	}
}

// TestCoreCodecsAllBinary: every codec this package registers (names
// without a dot; other packages' test codecs use dotted names) has both
// binary hooks, so no protocol message can fall onto the transport's gob
// escape frame unless ForceGob asks for it.
func TestCoreCodecsAllBinary(t *testing.T) {
	for _, c := range transport.Codecs() {
		if strings.Contains(c.Name, ".") {
			continue
		}
		if c.AppendWire == nil || c.DecodeWire == nil {
			t.Errorf("core codec %q has no binary hooks (AppendWire set: %v, DecodeWire set: %v)",
				c.Name, c.AppendWire != nil, c.DecodeWire != nil)
		}
		if _, ok := transport.WireIDOf(c.Msg); !ok {
			t.Errorf("core codec %q has no frozen wire id", c.Name)
		}
	}
}

// TestLockHandoffEncodeAllocs is the message half of the hand-off's frame
// budget (the frame half — pooled header and iovec list — is tcp's
// TestBinaryFrameEncodeAllocs): appending an acqReq, an acqFwd and an
// acqGrant carrying piggybacked intervals to a warmed frame buffer must
// stay within one allocation per frame. The gob escape these rode built a
// reflective encoder per frame (hundreds of allocations).
func TestLockHandoffEncodeAllocs(t *testing.T) {
	for _, name := range []string{"acqReq", "acqFwd", "acqGrant"} {
		m := msgSamples()[name][0]
		c, ok := transport.CodecOf(m)
		if !ok || c.AppendWire == nil {
			t.Fatalf("%s has no binary codec", name)
		}
		buf := make([]byte, 0, 4096)
		iov := make([][]byte, 0, 8)
		avg := testing.AllocsPerRun(100, func() {
			b, p := c.AppendWire(m, buf[:0], iov[:0])
			if len(b) == 0 || len(p) != 0 {
				t.Fatalf("%s encoded to %d bytes, %d payloads", name, len(b), len(p))
			}
		})
		if avg > 1 {
			t.Errorf("%s encode allocates %.1f times per frame (budget ≤1)", name, avg)
		}
	}
}
