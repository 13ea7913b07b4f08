package core

import (
	"math/bits"

	"adsm/internal/mem"
	"adsm/internal/vc"
)

// Protocol messages. Size() reports payload bytes for the network cost
// model; contents are passed by reference (the simulator runs in one
// address space) but every transfer is charged its wire size. Every
// message has a binary codec (wire.go). Most declare the exact byte count
// their encoder produces — wire_test.go pins Size() == len(encoding) —
// while the lock hand-off, home-flush and home-bind messages keep the
// modelled sizes the simulator's virtual times were calibrated with,
// audited with slack by TestMsgSizeMatchesWire.

// --- paging ---

// pageReq asks for a whole-page copy (read miss, or SW/adaptive fetch from
// the perceived owner).
type pageReq struct {
	Page int
	Hops int
}

func (m pageReq) Size() int { return iLen(m.Page) + iLen(m.Hops) }

// pageResp carries the page contents and the vector clock summarizing the
// writes reflected in it.
type pageResp struct {
	Data    []byte
	Applied vc.VC
}

func (m pageResp) Size() int { return vcLen(m.Applied) + iLen(len(m.Data)) + len(m.Data) }

// --- diffing ---

// diffReq asks one writer for the diffs of the listed write notices. It
// piggybacks the requester's false-sharing perception for the page
// (adaptive protocols, mechanism 1 of Section 3.1.2).
type diffReq struct {
	Page   int
	Wants  []wnKey
	SeesFS bool
}

func (m diffReq) Size() int { return iLen(m.Page) + 1 + keysLen(m.Wants) }

// diffResp returns the requested diffs.
type diffResp struct {
	Diffs []*mem.Diff
	Keys  []wnKey
}

func (m diffResp) Size() int {
	n := iLen(len(m.Diffs))
	for _, d := range m.Diffs {
		n += d.EncodedSize()
	}
	return n + keysLen(m.Keys)
}

// --- span prefetch (batched paging + diffing) ---

// spanDiffWant asks for one page's diff bundle inside a spanFetchReq,
// carrying the same per-page fields as diffReq (including the requester's
// false-sharing perception piggyback).
type spanDiffWant struct {
	Page   int
	Wants  []wnKey
	SeesFS bool
}

// spanFetchReq batches a span's coherence fetches addressed to one node:
// whole-page copies (the pages whose fetch target this node is) and diff
// bundles (the pages some of whose pending diffs this node wrote). One
// request per destination, all destinations issued in a single Multicall,
// replaces the per-page pageReq Calls and per-page diffReq Multicalls of
// the serial fault path.
type spanFetchReq struct {
	Pages []int
	Diffs []spanDiffWant
}

func (m spanFetchReq) Size() int {
	n := iLen(len(m.Pages))
	for _, p := range m.Pages {
		n += iLen(p)
	}
	n += iLen(len(m.Diffs))
	for _, d := range m.Diffs {
		n += iLen(d.Page) + 1 + keysLen(d.Wants)
	}
	return n
}

// spanPageCopy is one page's reply inside a spanFetchResp. Served=false
// reports that the target holds no copy (an ownership transfer is in
// flight and a serial pageReq would have been forwarded); the requester
// falls back to the serial path for that page, which chases the
// perceived-owner chain as usual.
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

// spanFetchResp answers a spanFetchReq with every requested page copy and
// diff bundle in one message.
type spanFetchResp struct {
	Pages []spanPageCopy
	Diffs []spanDiffBundle
}

func (m spanFetchResp) Size() int {
	n := iLen(len(m.Pages))
	for _, p := range m.Pages {
		n += iLen(p.Page) + 1 + vcLen(p.Applied) + iLen(len(p.Data)) + len(p.Data)
	}
	n += iLen(len(m.Diffs))
	for _, d := range m.Diffs {
		n += iLen(d.Page) + keysLen(d.Keys) + iLen(len(d.Diffs))
		for _, df := range d.Diffs {
			n += df.EncodedSize()
		}
	}
	return n
}

// --- one-sided region reads (tcp region lane) ---

// regionReadReq asks a peer's region server for a whole-page copy without
// involving its protocol handler — the software analogue of an RDMA READ.
// It mirrors pageReq byte-for-byte (Hops is always 0 on the one-sided
// path), so a served one-sided read charges the traffic counters exactly
// what the handler-path pageReq would have, keeping the sim/tcp
// count-equivalence pins intact.
type regionReadReq struct {
	Page int
	Hops int
}

func (m regionReadReq) Size() int { return iLen(m.Page) + iLen(m.Hops) }

// regionReadResp carries the published page snapshot; it mirrors pageResp.
type regionReadResp struct {
	Data    []byte
	Applied vc.VC
}

func (m regionReadResp) Size() int { return vcLen(m.Applied) + iLen(len(m.Data)) + len(m.Data) }

// regionSpanReq asks the region server for a span's page copies in one
// round-trip. It mirrors a diff-less spanFetchReq: the trailing reserved
// count (always zero) stands in for the empty Diffs section, so the two
// encodings have identical length and a served one-sided span fetch is
// charged exactly like the handler-path spanFetchReq it replaces.
type regionSpanReq struct {
	Pages []int
}

func (m regionSpanReq) Size() int {
	n := iLen(len(m.Pages))
	for _, p := range m.Pages {
		n += iLen(p)
	}
	return n + 1 // trailing reserved zero count (the empty diff section)
}

// regionSpanResp answers with per-page copies, mirroring a diff-less
// spanFetchResp (trailing reserved zero count, as in regionSpanReq).
// Served=false marks pages the region could not serve; the requester falls
// back to the handler path for those.
type regionSpanResp struct {
	Pages []spanPageCopy
}

func (m regionSpanResp) Size() int {
	n := iLen(len(m.Pages))
	for _, p := range m.Pages {
		n += iLen(p.Page) + 1 + vcLen(p.Applied) + iLen(len(p.Data)) + len(p.Data)
	}
	return n + 1
}

// --- ownership (adaptive protocols) ---

// ownReq is an ownership request sent directly to the last perceived owner
// (never forwarded; always two messages). Version is the requester's
// perceived version number: a mismatch means write-write false sharing.
type ownReq struct {
	Page    int
	Version int32
	// NeedPage piggybacks the page fetch on the ownership request (write
	// fault on an invalid page).
	NeedPage bool
	// Resume marks a request issued from MW mode after the protocol
	// inferred that false sharing has stopped (Section 3.1.2).
	Resume bool
	// Applied lets the grantor skip the page transfer when the
	// requester's copy is current.
	Applied vc.VC
}

func (m ownReq) Size() int { return iLen(m.Page) + i32Len(m.Version) + 2 + vcLen(m.Applied) }

// ownResp grants or refuses ownership. On grant, Version is the new
// version (requester's perceived version + 1) and the page contents ride
// along unless the requester's copy was provably current. On refusal the
// page is included only when the requester asked for it.
type ownResp struct {
	Granted bool
	Version int32
	Data    []byte
	Applied vc.VC
}

func (m ownResp) Size() int {
	return 1 + i32Len(m.Version) + vcLen(m.Applied) + iLen(len(m.Data)) + len(m.Data)
}

// ownBatchReq groups a span plan's ownership requests addressed to one
// perceived owner into a single message (write-span grant batching). The
// grantor answers each entry exactly as it would a serial ownReq arriving
// at the same instant; grants and refusals are per entry.
type ownBatchReq struct {
	Reqs []ownReq
}

func (m ownBatchReq) Size() int {
	n := iLen(len(m.Reqs))
	for _, r := range m.Reqs {
		n += r.Size()
	}
	return n
}

// ownBatchResp answers an ownBatchReq positionally.
type ownBatchResp struct {
	Resps []ownResp
}

func (m ownBatchResp) Size() int {
	n := iLen(len(m.Resps))
	for _, r := range m.Resps {
		n += r.Size()
	}
	return n
}

// --- ownership (pure SW protocol, home-based) ---

// swOwnReq travels requester -> home -> owner (forwarded); the grant comes
// directly back to the requester with the page.
type swOwnReq struct {
	Page int
	Hops int
}

func (m swOwnReq) Size() int { return iLen(m.Page) + iLen(m.Hops) }

// swOwnGrant transfers ownership and the page.
type swOwnGrant struct {
	Version int32
	Data    []byte
	Applied vc.VC
}

func (m swOwnGrant) Size() int {
	return i32Len(m.Version) + vcLen(m.Applied) + iLen(len(m.Data)) + len(m.Data)
}

// --- home flushes (HLRC) ---

// hlrcFlush carries one closed interval's diffs from a writer to the home
// of the written pages. VC is the interval's vector clock, joined into the
// home's applied vector as each diff lands.
type hlrcFlush struct {
	VC      vc.VC
	Entries []hlrcEntry
}

type hlrcEntry struct {
	Page int
	Diff *mem.Diff
}

func (m hlrcFlush) Size() int {
	n := 8 + 4*len(m.VC)
	for _, e := range m.Entries {
		n += 8 + e.Diff.EncodedSize()
	}
	return n
}

// hlrcAck acknowledges a flush; the writer may retire its diffs.
type hlrcAck struct{}

func (hlrcAck) Size() int { return 8 }

// --- home binding (first-touch home policy) ---

// homeBindReq asks the directory (the allocator, node 0) for a page's
// home, binding it to the requester if it has none yet.
type homeBindReq struct {
	Page int
}

func (homeBindReq) Size() int { return 12 }

// homeBindResp carries the agreed binding.
type homeBindResp struct {
	Home int
}

func (homeBindResp) Size() int { return 12 }

// --- locks ---

// acqReq asks the lock's static manager for the lock. KnownTS is the
// requester's interval knowledge so the grantor can piggyback exactly the
// intervals the requester lacks. Shared asks for a read grant.
type acqReq struct {
	Lock    int
	Shared  bool
	KnownTS []int32
}

func (m acqReq) Size() int { return 8 + 4*len(m.KnownTS) }

// acqFwd is the manager forwarding the request to the last holder.
type acqFwd struct {
	Lock    int
	Origin  int
	Shared  bool
	KnownTS []int32
}

func (m acqFwd) Size() int { return 12 + 4*len(m.KnownTS) }

// acqGrant passes the lock to the requester with the piggybacked
// intervals and the releaser's vector clock. An exclusive grant also
// carries the readers (bit per node) the new holder must revoke, charged
// like a knowledge-vector entry each. A reader's answer to a revoke is an
// acqGrant too: what it knew at its read release. Diffs/Keys are the
// diffs the granter pushes for the shipped write notices (push.go),
// charged at their exact encoded size on top of the modelled grant.
type acqGrant struct {
	Intervals []*Interval
	VC        vc.VC
	Readers   uint64
	Diffs     []*mem.Diff
	Keys      []wnKey
	nprocs    int
}

func (m acqGrant) Size() int {
	return 8 + 4*len(m.VC) + 4*bits.OnesCount64(m.Readers) + intervalsWireSize(m.Intervals, m.nprocs) +
		pushedLen(m.Diffs, m.Keys)
}

// acqRevoke asks a reader to give up its cached read grant before the new
// exclusive holder enters. KnownTS is the writer's interval knowledge.
type acqRevoke struct {
	Lock    int
	KnownTS []int32
}

func (m acqRevoke) Size() int { return iLen(m.Lock) + tsLen(m.KnownTS) }

// --- barriers ---

// barArrive carries the arriver's knowledge vector and its own new
// intervals to the barrier manager; MemPressure requests a garbage
// collection (piggybacked, as in TreadMarks).
type barArrive struct {
	Epoch       int64
	KnownTS     []int32
	Intervals   []*Interval
	MemPressure bool
	nprocs      int
}

func (m barArrive) Size() int {
	return uLen(uint64(m.Epoch)) + tsLen(m.KnownTS) + intervalsLen(m.Intervals) + 1 + iLen(m.nprocs)
}

// barRelease releases a waiter with the intervals it lacks and the global
// knowledge vector. GC instructs all nodes to run garbage collection;
// Hints carries post-GC page routing (validator/owner per page), charged
// at 8 bytes per entry. Switches carries the adaptive meta-protocol's
// per-page policy decisions: every node applies them at this release, so
// a page's protocol flips cluster-wide at the same barrier epoch.
type barRelease struct {
	Intervals []*Interval
	Global    []int32
	GC        bool
	Hints     []gcHint
	Switches  []policySwitch
	nprocs    int
}

type gcHint struct {
	Page    int
	Owner   int
	Version int32
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

func (m barRelease) Size() int {
	n := intervalsLen(m.Intervals) + tsLen(m.Global) + 1 + iLen(len(m.Hints))
	for _, h := range m.Hints {
		n += iLen(h.Page) + iLen(h.Owner) + i32Len(h.Version)
	}
	return n + switchesLen(m.Switches) + iLen(m.nprocs)
}
