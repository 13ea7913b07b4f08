package core

import (
	"math/bits"

	"adsm/internal/mem"
	"adsm/internal/vc"
)

// Protocol messages. Each states its wire layout once, in its wire method
// (run by the visitor in wire.go): the codec hooks encode and decode with
// it, and Size() is its size pass, so the cost model and the traffic
// counters charge the bytes the tcp runtime moves. Seven messages keep the
// modelled Size() the simulator's virtual times were calibrated with: the
// lock hand-off (acqReq, acqFwd, acqGrant), the home flush (hlrcFlush,
// hlrcAck) and home binding (homeBindReq, homeBindResp).

// --- paging ---

// pageReq asks for a whole-page copy (read miss, or SW/adaptive fetch from
// the perceived owner).
type pageReq struct{ Page, Hops int }

func (m *pageReq) wire(w *wireRW) { w.Int(&m.Page); w.Int(&m.Hops) }
func (m pageReq) Size() int       { var w wireRW; m.wire(&w); return w.n }

// pageResp carries the page and the vector clock of the writes it reflects.
type pageResp struct {
	Data    []byte
	Applied vc.VC
}

func (m *pageResp) wire(w *wireRW) { w.VC(&m.Applied); w.Payload(&m.Data) }
func (m pageResp) Size() int       { var w wireRW; m.wire(&w); return w.n }

// --- diffing ---

// diffReq asks one writer for the diffs of the listed write notices, with
// the requester's false-sharing perception of the page (Section 3.1.2).
type diffReq struct {
	Page   int
	Wants  []wnKey
	SeesFS bool
}

func (m *diffReq) wire(w *wireRW) { w.Int(&m.Page); w.Bool(&m.SeesFS); w.Keys(&m.Wants) }
func (m diffReq) Size() int       { var w wireRW; m.wire(&w); return w.n }

// diffResp returns the requested diffs.
type diffResp struct {
	Diffs []*mem.Diff
	Keys  []wnKey
}

func (m *diffResp) wire(w *wireRW) { w.Diffs(&m.Diffs); w.Keys(&m.Keys) }
func (m diffResp) Size() int       { var w wireRW; m.wire(&w); return w.n }

// --- span prefetch (batched paging + diffing) ---

// spanFetchReq batches a span's coherence fetches addressed to one node:
// whole-page copies (pages it is the fetch target of) and diff bundles
// (pages some of whose pending diffs it wrote), replacing the serial fault
// path's per-page pageReq Calls and diffReq Multicalls.
type spanFetchReq struct {
	Pages []int
	Diffs []spanDiffWant
}

// spanDiffWant asks for one page's diff bundle inside a spanFetchReq.
type spanDiffWant = diffReq

func (m *spanFetchReq) wire(w *wireRW) {
	for i := range list(w, &m.Pages, 1) {
		w.Int(&m.Pages[i])
	}
	for i := range list(w, &m.Diffs, 3) {
		m.Diffs[i].wire(w)
	}
}
func (m spanFetchReq) Size() int { var w wireRW; m.wire(&w); return w.n }

// spanFetchResp answers a spanFetchReq with every requested page copy and
// diff bundle in one message.
type spanFetchResp struct {
	Pages []spanPageCopy
	Diffs []spanDiffBundle
}

// spanPageCopy is one page's copy inside a spanFetchResp. Served=false:
// the target holds no copy (an ownership transfer is in flight), and the
// requester falls back to the serial path, which chases the owner chain.
type spanPageCopy struct {
	Page    int
	Served  bool
	Data    []byte
	Applied vc.VC
}

// spanDiffBundle is one page's diff reply inside a spanFetchResp.
type spanDiffBundle struct {
	Page  int
	Keys  []wnKey
	Diffs []*mem.Diff
}

func (m *spanFetchResp) wire(w *wireRW) {
	for i := range list(w, &m.Pages, 4) {
		p := &m.Pages[i]
		w.Int(&p.Page)
		w.Bool(&p.Served)
		w.VC(&p.Applied)
		w.Payload(&p.Data)
	}
	for i := range list(w, &m.Diffs, 3) {
		d := &m.Diffs[i]
		w.Int(&d.Page)
		w.Keys(&d.Keys)
		w.Diffs(&d.Diffs)
	}
}
func (m spanFetchResp) Size() int { var w wireRW; m.wire(&w); return w.n }

// --- ownership (adaptive protocols) ---

// ownReq is an ownership request sent directly to the last perceived owner
// (never forwarded; always two messages). Version is the requester's
// perceived version number: a mismatch means write-write false sharing.
type ownReq struct {
	Page     int
	Version  int32
	NeedPage bool  // piggybacks the page fetch (write fault on an invalid page)
	Resume   bool  // sent from MW mode once false sharing stopped (Section 3.1.2)
	Applied  vc.VC // lets the grantor skip the page if the requester's copy is current
}

func (m *ownReq) wire(w *wireRW) {
	w.Int(&m.Page)
	w.I32(&m.Version)
	w.Bool(&m.NeedPage)
	w.Bool(&m.Resume)
	w.VC(&m.Applied)
}
func (m ownReq) Size() int { var w wireRW; m.wire(&w); return w.n }

// ownResp grants or refuses ownership. A grant carries the new version
// (perceived + 1) and the page unless the requester's copy was provably
// current; a refusal carries the page only if the requester asked for it.
type ownResp struct {
	Granted bool
	Version int32
	Data    []byte
	Applied vc.VC
}

func (m *ownResp) wire(w *wireRW) {
	w.Bool(&m.Granted)
	w.I32(&m.Version)
	w.VC(&m.Applied)
	w.Payload(&m.Data)
}
func (m ownResp) Size() int { var w wireRW; m.wire(&w); return w.n }

// --- ownership (pure SW protocol, home-based) ---

// swOwnReq travels requester -> home (Hops 0) -> the page's previous
// requester (Hops 1, forwarded once); the grant comes directly back to the
// requester with the page.
type swOwnReq pageReq

func (m *swOwnReq) wire(w *wireRW) { (*pageReq)(m).wire(w) }
func (m swOwnReq) Size() int       { var w wireRW; m.wire(&w); return w.n }

// swOwnGrant transfers ownership and the page.
type swOwnGrant struct {
	Version int32
	Data    []byte
	Applied vc.VC
}

func (m *swOwnGrant) wire(w *wireRW) { w.I32(&m.Version); w.VC(&m.Applied); w.Payload(&m.Data) }
func (m swOwnGrant) Size() int       { var w wireRW; m.wire(&w); return w.n }

// --- home flushes (HLRC) ---

// hlrcFlush carries one closed interval's diffs from a writer to the home
// of the written pages (each diff names its page). VC is the interval's
// vector clock, joined into the home's applied vector as each diff lands.
type hlrcFlush struct {
	VC    vc.VC
	Diffs []*mem.Diff
}

func (m *hlrcFlush) wire(w *wireRW) { w.VC(&m.VC); w.Diffs(&m.Diffs) }

func (m hlrcFlush) Size() int {
	n := 8 + 4*len(m.VC)
	for _, d := range m.Diffs {
		n += 8 + d.EncodedSize()
	}
	return n
}

// hlrcAck acknowledges a flush; the writer may retire its diffs.
type hlrcAck struct{}

func (*hlrcAck) wire(*wireRW) {}
func (hlrcAck) Size() int     { return 8 }

// --- home binding (first-touch home policy) ---

// homeBindReq asks the directory (the allocator, node 0) for a page's
// home, binding it to the requester if it has none yet.
type homeBindReq struct{ Page int }

func (m *homeBindReq) wire(w *wireRW) { w.Int(&m.Page) }
func (homeBindReq) Size() int         { return 12 }

// homeBindResp carries the agreed binding.
type homeBindResp struct{ Home int }

func (m *homeBindResp) wire(w *wireRW) { w.Int(&m.Home) }
func (homeBindResp) Size() int         { return 12 }

// --- locks ---

// acqReq asks the lock's static manager for the lock. KnownTS is the
// requester's interval knowledge so the grantor can piggyback exactly the
// intervals the requester lacks. Shared asks for a read grant.
type acqReq struct {
	Lock    int
	Shared  bool
	KnownTS []int32
}

func (m *acqReq) wire(w *wireRW) { w.Int(&m.Lock); w.Bool(&m.Shared); w.TS(&m.KnownTS) }
func (m acqReq) Size() int       { return 8 + 4*len(m.KnownTS) }

// acqFwd is the manager forwarding the request to the last holder.
type acqFwd struct {
	Lock    int
	Origin  int
	Shared  bool
	KnownTS []int32
}

func (m *acqFwd) wire(w *wireRW) {
	w.Int(&m.Lock)
	w.Int(&m.Origin)
	w.Bool(&m.Shared)
	w.TS(&m.KnownTS)
}
func (m acqFwd) Size() int { return 12 + 4*len(m.KnownTS) }

// acqGrant passes the lock with the piggybacked intervals and the
// releaser's vector clock. An exclusive grant also carries the readers (bit
// per node) the new holder must revoke. A reader's answer to a revoke is an
// acqGrant too: what it knew at its read release. Diffs/Keys are the diffs
// pushed for the shipped write notices (push.go), charged exactly.
type acqGrant struct {
	Intervals ivBatch
	VC        vc.VC
	Readers   uint64
	Diffs     []*mem.Diff
	Keys      []wnKey
	nprocs    int
}

func (m *acqGrant) wire(w *wireRW) {
	w.Intervals(&m.Intervals)
	w.VC(&m.VC)
	w.U64(&m.Readers)
	w.Int(&m.nprocs)
	w.Pushed(&m.Diffs, &m.Keys)
}

// Size is the modelled grant plus, when it pushes any, the pushed diffs'
// exact encoding.
func (m acqGrant) Size() int {
	w := wireRW{n: 8 + 4*len(m.VC) + 4*bits.OnesCount64(m.Readers) + intervalsWireSize(m.Intervals, m.nprocs)}
	if len(m.Diffs) > 0 {
		w.Pushed(&m.Diffs, &m.Keys)
	}
	return w.n
}

// acqRevoke asks a reader to give up its cached read grant before the new
// exclusive holder enters. KnownTS is the writer's interval knowledge.
type acqRevoke struct {
	Lock    int
	KnownTS []int32
}

func (m *acqRevoke) wire(w *wireRW) { w.Int(&m.Lock); w.TS(&m.KnownTS) }
func (m acqRevoke) Size() int       { var w wireRW; m.wire(&w); return w.n }

// --- barriers ---

// barArrive carries the arriver's knowledge vector and its own new
// intervals to the barrier manager; MemPressure requests a garbage
// collection (piggybacked, as in TreadMarks). Under the adaptive protocol
// Facts reports the arriver's page facts gained since its last arrival.
type barArrive struct {
	Epoch       int64
	KnownTS     []int32
	Intervals   ivBatch
	MemPressure bool
	Facts       []pageFact
	nprocs      int
}

func (m *barArrive) wire(w *wireRW) {
	w.I64(&m.Epoch)
	w.TS(&m.KnownTS)
	w.Intervals(&m.Intervals)
	w.Facts(&m.Facts, &m.MemPressure)
	w.Int(&m.nprocs)
}
func (m barArrive) Size() int { var w wireRW; m.wire(&w); return w.n }

// barRelease releases a waiter with the intervals it lacks and the global
// knowledge vector. GC orders a garbage collection; Hints carries post-GC
// page routing. Switches carries the adaptive policy's per-page decisions,
// which every node applies at this release (one epoch cluster-wide).
type barRelease struct {
	Intervals ivBatch
	Global    []int32
	GC        bool
	Hints     []gcHint
	Switches  []policySwitch
	nprocs    int
}

type gcHint struct {
	Page, Owner int
	Version     int32
}

// policySwitch reassigns one page to a new protocol. Owner/Version seed the
// single-writer routing state under the new protocol (the keeper for a
// switch to an ownership protocol; ignored by MW and HLRC targets).
type policySwitch struct {
	Page    int
	Proto   int32
	Owner   int
	Version int32
}

func (m *barRelease) wire(w *wireRW) {
	w.Intervals(&m.Intervals)
	w.TS(&m.Global)
	w.Bool(&m.GC)
	for i := range list(w, &m.Hints, 3) {
		h := &m.Hints[i]
		w.Int(&h.Page)
		w.Int(&h.Owner)
		w.I32(&h.Version)
	}
	w.Switches(&m.Switches)
	w.Int(&m.nprocs)
}
func (m barRelease) Size() int { var w wireRW; m.wire(&w); return w.n }
