// Package stats collects per-node protocol counters and memory accounting
// used to reproduce the paper's Tables 3 and 4 and Figure 3.
package stats

import "reflect"

// Counters holds the protocol counters of one DSM node, or their sum over
// a cluster (the public adsm.Stats is this struct). Every int64 field is a
// count that sums across nodes, so a new counter is one field here: Add,
// Sum and every report pick it up.
type Counters struct {
	// Traffic, filled by the runtime: messages sent and the bytes the
	// protocol model charges them (Msg.Size()+HeaderBytes each).
	Messages  int64
	DataBytes int64

	// Faults and fetches.
	ReadFaults  int64
	WriteFaults int64
	PageFetches int64 // whole-page transfers received

	// Ownership protocol (SW and adaptive).
	OwnershipRequests int64 // ownership requests issued (Table 4 "Owner" column)
	OwnershipGrants   int64 // grants issued by this node
	OwnershipRefusals int64 // refusals issued by this node (WW false sharing detected)
	Forwards          int64 // request forwarding hops performed by this node

	// Twins and diffs.
	TwinsCreated int64
	DiffsCreated int64
	DiffsApplied int64

	// Memory accounting (Table 3): bytes ever allocated for twins and
	// diffs, and the high-water mark of the twin+diff pools (summed over
	// nodes in a total).
	TwinBytes       int64
	DiffBytes       int64
	MaxLiveTwinDiff int64

	// Synchronization.
	LockAcquires int64 // Lock and RLock calls, local or remote
	SharedLocal  int64 // RLocks served without messages (cached grant, or the token here)
	Revokes      int64 // read grants revoked by a Lock on another node
	Barriers     int64

	// Adaptation events.
	SWtoMW int64 // page-mode transitions (adaptive protocols)
	MWtoSW int64

	// Adaptive meta-protocol: per-page protocol switches applied at
	// barrier releases, total and by target protocol family.
	PolicySwitches int64
	SwitchToSW     int64 // switched to the single-writer (WFS) protocol
	SwitchToMW     int64 // switched to the multiple-writer protocol
	SwitchToHLRC   int64 // switched to home-based LRC

	// GCRuns counts barrier-time garbage collections (the cluster's count).
	GCRuns int64

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

	// Never incremented; they stay only because benchmark/ reads them (ROADMAP 4(a)).
	OneSidedReads     int64
	OneSidedFallbacks int64

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

	// DiffsStored counts diffs cached: created here, or received copies.
	// DiffsEvicted counts the received ones dropped between barriers once
	// every node knew their interval (core evict.go).
	DiffsStored  int64
	DiffsEvicted int64

	// Fault tolerance (ckpt.go): durable barrier checkpoints committed by
	// this node and recoveries it participated in.
	Checkpoints int64
	Recoveries  int64

	// Wire-efficiency counters, filled only by runtimes that move real
	// frames (the TCP runtime; zero under the simulator). DataBytes above
	// charges the protocol model; these report what hit the sockets.
	WireFrames   int64 // data-plane frames sent by the hosted nodes
	WireBytes    int64 // real bytes (frame header + body) on the wire
	WireEncodeNS int64 // cumulative frame-encode time, nanoseconds

	// Per-class wire accounting of one runtime, indexed by message class
	// (0 control, 1 bulk: the two send queues of each connection); nil
	// under the simulator. Add leaves them alone: they do not sum across nodes.
	LaneBytes      []int64 // bytes sent per class by the hosted nodes
	LaneQueueDepth []int64 // current send-queue depth per class (frames)
	LaneQueueHWM   []int64 // deepest any one connection's queue of the class got (frames)
}

// Add accumulates every int64 field of o into s.
func (s *Counters) Add(o *Counters) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i := range sv.NumField() {
		if f := sv.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
}

// Sum aggregates per-node counters into one total.
func Sum(nodes []*Counters) Counters {
	var t Counters
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
