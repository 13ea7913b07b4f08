// Package stats collects per-node protocol counters and memory accounting
// used to reproduce the paper's Tables 3 and 4 and Figure 3.
package stats

// Node holds the counters for one DSM node.
type Node struct {
	// Faults and fetches.
	ReadFaults  int64
	WriteFaults int64
	PageFetches int64 // whole-page transfers received

	// Ownership protocol (SW and adaptive).
	OwnReqs     int64 // ownership requests issued (Table 4 "Owner" column)
	OwnGrants   int64 // grants issued by this node
	OwnRefusals int64 // refusals issued by this node (WW false sharing detected)
	Forwards    int64 // request forwarding hops performed by this node

	// Twins and diffs.
	TwinsCreated int64
	DiffsCreated int64
	DiffsApplied int64
	DiffsStored  int64 // diffs held (created + received copies)

	// Memory accounting (Table 3). Cum* counts bytes ever allocated for
	// twins/diffs on this node; Live* tracks the current pool so garbage
	// collection can trigger; MaxLiveBytes is the high-water mark.
	CumTwinBytes  int64
	CumDiffBytes  int64
	LiveTwinBytes int64
	LiveDiffBytes int64
	MaxLiveBytes  int64

	// Synchronization.
	LockAcquires int64 // Acquire and AcquireShared calls, local or remote
	SharedLocal  int64 // shared acquires served without messages
	Revokes      int64 // read grants revoked by an exclusive acquire
	Barriers     int64

	// Adaptation events.
	SWtoMW int64
	MWtoSW int64

	// Adaptive meta-protocol: per-page protocol switches applied on this
	// node at barrier releases, total and by target protocol family.
	PolicySwitches int64
	SwitchToSW     int64 // switched to the single-writer (WFS) protocol
	SwitchToMW     int64 // switched to the multiple-writer protocol
	SwitchToHLRC   int64 // switched to home-based LRC

	// Home-based protocols: flush locality (HLRC) and home agreement
	// traffic (first-touch binding RPCs).
	HomeFlushes    int64 // hlrcFlush messages sent to remote homes
	HomeFlushBytes int64 // payload bytes of those flushes
	HomeLocalDiffs int64 // diffs retired locally because the writer was the home
	HomeBinds      int64 // first-touch home agreement requests issued

	// Span-prefetch batching: a span's page fetches grouped into one
	// overlapped Multicall instead of one blocking call per page.
	BatchedFetches  int64 // batched span-fetch rounds issued (one Multicall each)
	PrefetchPages   int64 // pages made valid through the batched span path
	SerialFallbacks int64 // planned pages that fell back to the serial fault path

	// One-sided region reads (tcp region lane) and write-span grant
	// batching.
	OneSidedReads     int64 // page/span fetches served from a peer's region
	OneSidedFallbacks int64 // region probes that fell back to the handler path
	BatchedOwnReqs    int64 // ownership requests that rode an ownBatchReq

	// Omittable writes (NWR's Thomas-write-rule pass, Params.OmitWrites):
	// blind-write diffs whose byte extent is covered by the same node's
	// next diff before the earlier write notice ever left the node, so the
	// earlier diff's payload is provably dead and dropped.
	OmittedWrites int64 // predecessor diffs emptied by the omit pass
	OmittedBytes  int64 // payload bytes those diffs no longer carry

	// Lock grants that carry diffs (core push.go): diffs this node pushed
	// on the grants it sent; pushed diffs it received but dropped on
	// arrival because its next fault would not have fetched them; and
	// stored pushes a fault then applied. A push stored but never used
	// (a whole-page fetch superseded it, or the page was not touched
	// again before garbage collection) is DiffsPushed - PushesDropped -
	// PushesUsed, summed over the nodes.
	DiffsPushed   int64
	PushesDropped int64
	PushesUsed    int64

	// DiffsEvicted counts cached foreign diffs dropped between barriers
	// once every node knew their interval (core evict.go).
	DiffsEvicted int64

	// Fault tolerance (ckpt.go): durable barrier checkpoints committed by
	// this node and recoveries it participated in.
	Checkpoints int64
	Recoveries  int64
}

// NoteLive updates the high-water mark after a change to the live pools.
func (s *Node) NoteLive() {
	if l := s.LiveTwinBytes + s.LiveDiffBytes; l > s.MaxLiveBytes {
		s.MaxLiveBytes = l
	}
}

// Add accumulates o into s (used to aggregate per-node stats).
func (s *Node) Add(o *Node) {
	s.ReadFaults += o.ReadFaults
	s.WriteFaults += o.WriteFaults
	s.PageFetches += o.PageFetches
	s.OwnReqs += o.OwnReqs
	s.OwnGrants += o.OwnGrants
	s.OwnRefusals += o.OwnRefusals
	s.Forwards += o.Forwards
	s.TwinsCreated += o.TwinsCreated
	s.DiffsCreated += o.DiffsCreated
	s.DiffsApplied += o.DiffsApplied
	s.DiffsStored += o.DiffsStored
	s.CumTwinBytes += o.CumTwinBytes
	s.CumDiffBytes += o.CumDiffBytes
	s.LiveTwinBytes += o.LiveTwinBytes
	s.LiveDiffBytes += o.LiveDiffBytes
	s.MaxLiveBytes += o.MaxLiveBytes
	s.LockAcquires += o.LockAcquires
	s.SharedLocal += o.SharedLocal
	s.Revokes += o.Revokes
	s.Barriers += o.Barriers
	s.SWtoMW += o.SWtoMW
	s.MWtoSW += o.MWtoSW
	s.PolicySwitches += o.PolicySwitches
	s.SwitchToSW += o.SwitchToSW
	s.SwitchToMW += o.SwitchToMW
	s.SwitchToHLRC += o.SwitchToHLRC
	s.HomeFlushes += o.HomeFlushes
	s.HomeFlushBytes += o.HomeFlushBytes
	s.HomeLocalDiffs += o.HomeLocalDiffs
	s.HomeBinds += o.HomeBinds
	s.BatchedFetches += o.BatchedFetches
	s.PrefetchPages += o.PrefetchPages
	s.SerialFallbacks += o.SerialFallbacks
	s.OneSidedReads += o.OneSidedReads
	s.OneSidedFallbacks += o.OneSidedFallbacks
	s.BatchedOwnReqs += o.BatchedOwnReqs
	s.OmittedWrites += o.OmittedWrites
	s.OmittedBytes += o.OmittedBytes
	s.DiffsPushed += o.DiffsPushed
	s.PushesDropped += o.PushesDropped
	s.PushesUsed += o.PushesUsed
	s.DiffsEvicted += o.DiffsEvicted
	s.Checkpoints += o.Checkpoints
	s.Recoveries += o.Recoveries
}

// Sum aggregates a slice of per-node stats into one total.
func Sum(nodes []*Node) Node {
	var t Node
	for _, n := range nodes {
		t.Add(n)
	}
	return t
}

// Point is one sample of a time series (virtual time in nanoseconds).
type Point struct {
	T int64
	V int64
}

// Series is an append-only time series, used for the Figure 3 diff-count
// timeline.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample.
func (s *Series) Append(t, v int64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Max returns the maximum value in the series (0 when empty).
func (s *Series) Max() int64 {
	var m int64
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Last returns the final value in the series (0 when empty).
func (s *Series) Last() int64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}
