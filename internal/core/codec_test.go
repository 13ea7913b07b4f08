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

func sampleIntervals() ivBatch {
	return ivBatch{
		Heads: []ivHead{{proc: 2, ts: 7, nwn: 2}, {proc: 0, ts: 4, nwn: 1}},
		VCs:   append(sampleVC(), sampleVC()...),
		WNs:   []wnRow{{page: 5}, ownerRow(9, 3), {page: 1}},
	}
}

// msgSamples returns representative values of every registered core
// message — the shared table behind the wire-size audit, the binary
// round-trip and golden-bytes tests and the fuzz seed corpus. Each entry
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
		"ownReq": {ownReq{Page: 11, Version: 5, NeedPage: true, Applied: sampleVC()}},
		"ownResp": {
			ownResp{Granted: true, Version: 6, Data: mem.NewPage(), Applied: sampleVC()},
			ownResp{Granted: false, Version: 6},
		},
		"swOwnReq":   {swOwnReq{Page: 3, Hops: 1}},
		"swOwnGrant": {swOwnGrant{Version: 9, Data: mem.NewPage(), Applied: sampleVC()}},
		"hlrcFlush": {
			hlrcFlush{VC: sampleVC(), Diffs: []*mem.Diff{sampleDiff(2, 640), sampleDiff(7, 48)}},
			// An empty diff (MakeDiff of an unchanged twin has zero runs).
			hlrcFlush{VC: sampleVC(), Diffs: []*mem.Diff{{Page: 300}}},
		},
		"hlrcAck":      {hlrcAck{}},
		"homeBindReq":  {homeBindReq{Page: 12}, homeBindReq{Page: 9000}},
		"homeBindResp": {homeBindResp{Home: 5}},
		"acqReq": {
			acqReq{Lock: 7, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}},
			acqReq{Lock: 7, Shared: true, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}},
		},
		"acqFwd": {
			acqFwd{Lock: 7, Origin: 2, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}},
			acqFwd{Lock: 7, Origin: 2, Shared: true, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}},
		},
		"acqGrant": {
			acqGrant{Intervals: sampleIntervals(), VC: sampleVC(), nprocs: nprocs},
			// The steady-state grant: the requester lacks nothing.
			acqGrant{VC: sampleVC(), nprocs: nprocs},
			// An exclusive grant handing over three readers to revoke.
			acqGrant{Intervals: sampleIntervals(), VC: sampleVC(), Readers: 1<<1 | 1<<3 | 1<<6, nprocs: nprocs},
			// Grants pushing the diffs of their non-owner notices (push.go):
			// an exclusive grant with a reader to revoke, a shared grant,
			// and a reader's revoke answer whose second diff is empty.
			acqGrant{Intervals: sampleIntervals(), VC: sampleVC(), Readers: 1 << 3, nprocs: nprocs,
				Diffs: []*mem.Diff{sampleDiff(5, 800), sampleDiff(1, 96)},
				Keys:  []wnKey{{page: 5, proc: 2, ts: 7}, {page: 1, proc: 0, ts: 4}}},
			acqGrant{Intervals: sampleIntervals(), VC: sampleVC(), nprocs: nprocs,
				Diffs: []*mem.Diff{sampleDiff(5, 800)}, Keys: []wnKey{{page: 5, proc: 2, ts: 7}}},
			acqGrant{Intervals: sampleIntervals(), VC: sampleVC(), nprocs: nprocs,
				Diffs: []*mem.Diff{sampleDiff(5, 800), {Page: 1}},
				Keys:  []wnKey{{page: 5, proc: 2, ts: 7}, {page: 1, proc: 0, ts: 4}}},
		},
		"acqRevoke": {acqRevoke{Lock: 7, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}}},
		"barArrive": {
			barArrive{Epoch: 12, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6},
				Intervals: sampleIntervals(), MemPressure: true, nprocs: nprocs},
			// An adaptive arrival: a first access, and a page's new diffs.
			barArrive{Epoch: 13, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}, MemPressure: true,
				Facts:  []pageFact{{Page: 2, First: true}, {Page: 9, Diffs: diffTally{count: 3, bytes: 4200, max: 4096}}},
				nprocs: nprocs},
		},
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
// releases they race with).
func TestMessageLaneClasses(t *testing.T) {
	want := map[transport.Class][]transport.Msg{
		transport.ClassControl: {
			pageReq{}, diffReq{}, spanFetchReq{}, ownReq{}, ownResp{},
			swOwnReq{}, swOwnGrant{},
			barArrive{}, barRelease{}, acqReq{}, acqFwd{}, acqGrant{}, acqRevoke{},
			hlrcFlush{}, hlrcAck{}, homeBindReq{}, homeBindResp{},
			ckptAck{}, recArrive{}, recRelease{}, recProtoArrive{}, recProtoRelease{},
		},
		transport.ClassBulk: {pageResp{}, diffResp{}, spanFetchResp{}, ckptPut{}},
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
// escape frame.
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
// acqGrant carrying piggybacked intervals and pushed diffs, and the revoke
// pair (an acqRevoke and the reader's acqGrant answer), to a warmed frame
// buffer must stay within one allocation per frame. The gob escape these
// rode built a reflective encoder per frame (hundreds of allocations).
// Pushed diffs' run data goes out as payload iovecs, one per run, never
// copied into the body.
func TestLockHandoffEncodeAllocs(t *testing.T) {
	samples := msgSamples()
	var msgs []transport.Msg
	for _, name := range []string{"acqReq", "acqFwd", "acqGrant", "acqRevoke"} {
		msgs = append(msgs, samples[name]...)
	}
	for _, m := range msgs {
		c, ok := transport.CodecOf(m)
		if !ok || c.AppendWire == nil {
			t.Fatalf("%T has no binary codec", m)
		}
		payloads := 0 // one per diff with data
		if g, ok := m.(acqGrant); ok {
			for _, d := range g.Diffs {
				if d.DataBytes() > 0 {
					payloads++
				}
			}
		}
		buf := make([]byte, 0, 4096)
		iov := make([][]byte, 0, 8)
		avg := testing.AllocsPerRun(100, func() {
			b, p := c.AppendWire(m, buf[:0], iov[:0])
			if len(b) == 0 || len(p) != payloads {
				t.Fatalf("%s encoded to %d bytes, %d payloads (want %d)", c.Name, len(b), len(p), payloads)
			}
		})
		if avg > 1 {
			t.Errorf("%s encode allocates %.1f times per frame (budget ≤1)", c.Name, avg)
		}
	}
}
