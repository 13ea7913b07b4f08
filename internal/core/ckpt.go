package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"adsm/internal/mem"
	"adsm/internal/transport"
)

// Barrier-epoch checkpoint replication and recovery.
//
// The paper's protocols are barrier-synchronized, which makes released
// barriers natural globally-consistent cuts: after a release every write
// notice is known everywhere, so "the shared segment as of barrier s" is a
// well-defined state no in-flight message can contradict. Checkpointing
// exploits that cut. At a checkpoint barrier every node snapshots the
// cluster-dirty pages of its partition (page pg belongs to node pg mod
// procs), ships the delta since its previous checkpoint to its ring buddy
// (rank+1 mod procs) as a bulk-class call, and commits the checkpoint with
// one extra barrier round. A checkpoint counts as durable only once that
// commit round releases — which proves every delta reached both its owner
// and its buddy — so any single node loss leaves every partition with at
// least one surviving provider.
//
// Recovery is discard-and-replay: the driver tears the cluster down,
// rebuilds it (respawned processes join with a fresh membership epoch; see
// internal/transport/tcp), and the new incarnation agrees on the newest
// recoverable checkpoint, rebinds per-page protocols to their checkpointed
// assignments, and rewrites the checkpointed bytes through the ordinary
// DSM write path so the protocols themselves propagate the restored state.
// Because the whole incarnation restarts from the cut, no pre-crash RPC
// can be duplicated against post-crash state — the call-ID dedup a
// surviving-incarnation design would need is unnecessary by construction.

// ErrCkptCorrupt reports that a checkpoint needed for recovery failed its
// per-page checksum — the replica is damaged and recovery must not invent
// data. Surfaces through Run (match with errors.Is).
var ErrCkptCorrupt = errors.New("dsm: checkpoint corrupt")

// ErrCkptUnrecoverable reports that the surviving checkpoint stores are
// mutually inconsistent (e.g. a partition's providers are all behind a
// committed checkpoint elsewhere): more nodes were lost than the single
// buddy replica tolerates. Surfaces through Run (match with errors.Is).
var ErrCkptUnrecoverable = errors.New("dsm: checkpoint state unrecoverable")

// ckptPage is one page frame inside a checkpoint: its bytes as of the
// checkpoint barrier, the protocol governing it (so recovery can rebind
// the adaptive seam's per-page policy), and a checksum of the bytes so a
// damaged replica fails loudly instead of resurrecting garbage.
type ckptPage struct {
	Page  int
	Data  []byte
	Proto int32
	Sum   uint64
}

// ckptSum is the FNV-1a 64 checksum guarding checkpoint page payloads.
func ckptSum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// ckptSlot is the per-role half of a store: the cumulative committed
// checkpoint plus at most one staged (uncommitted) delta. committed maps
// page -> frame for every page ever dirtied through committedStep; pending
// is the delta for the checkpoint directly after committedStep. Steps are
// the application's step indices (not necessarily consecutive — the
// checkpoint cadence is the driver's choice); -1 means none.
type ckptSlot struct {
	committedStep int64
	committed     map[int]ckptPage
	pendingStep   int64
	pending       []ckptPage
}

func newCkptSlot() ckptSlot {
	return ckptSlot{committedStep: -1, committed: make(map[int]ckptPage), pendingStep: -1}
}

// cover is the newest step the slot can reconstruct: the staged delta
// extends the committed state by construction (stage and promote strictly
// alternate), so a pending checkpoint is recoverable the moment it exists
// anywhere that survives.
func (s *ckptSlot) cover() int64 {
	if s.pendingStep > s.committedStep {
		return s.pendingStep
	}
	return s.committedStep
}

// cumulative materializes the full page set as of step, verifying every
// checksum. step must equal committedStep or the staged pendingStep.
func (s *ckptSlot) cumulative(step int64) ([]ckptPage, error) {
	if step < 0 || (step != s.committedStep && step != s.pendingStep) {
		return nil, fmt.Errorf("%w: slot covers step %d (committed %d), need %d",
			ErrCkptUnrecoverable, s.cover(), s.committedStep, step)
	}
	merged := make(map[int]ckptPage, len(s.committed)+len(s.pending))
	for pg, cp := range s.committed {
		merged[pg] = cp
	}
	if step > s.committedStep {
		for _, cp := range s.pending {
			merged[cp.Page] = cp
		}
	}
	out := make([]ckptPage, 0, len(merged))
	for _, cp := range merged {
		if ckptSum(cp.Data) != cp.Sum {
			return nil, fmt.Errorf("%w: page %d fails its checksum at step %d", ErrCkptCorrupt, cp.Page, step)
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out, nil
}

// promote folds the staged delta for step into the committed state.
func (s *ckptSlot) promote(step int64) {
	if s.pendingStep != step {
		return
	}
	for _, cp := range s.pending {
		s.committed[cp.Page] = cp
	}
	s.committedStep = step
	s.pendingStep = -1
	s.pending = nil
}

// drop discards any staged delta that is not for step.
func (s *ckptSlot) drop(step int64) {
	if s.pendingStep != step {
		s.pendingStep = -1
		s.pending = nil
	}
}

// CkptStore is one node's checkpoint stable store: the cumulative
// checkpoint of its own partition plus the replica of its ring
// predecessor's. The driver owns the stores and keeps them across cluster
// incarnations — they are the stand-in for a surviving process image
// (multi-process deployments hold one store per hosted rank; a SIGKILLed
// rank's store is simply gone and its buddy's replica carries it).
// Methods are locked because replica deltas arrive in handler context
// while the owner half is used from process context.
type CkptStore struct {
	mu   sync.Mutex
	rank int

	own ckptSlot // this rank's partition
	rep ckptSlot // replica of rank-1's partition
}

// NewCkptStore creates an empty store for the given rank.
func NewCkptStore(rank int) *CkptStore {
	return &CkptStore{rank: rank, own: newCkptSlot(), rep: newCkptSlot()}
}

func (st *CkptStore) stagePending(step int64, pages []ckptPage) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.own.pendingStep = step
	st.own.pending = pages
}

func (st *CkptStore) storeReplica(step int64, pages []ckptPage) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.rep.pendingStep = step
	st.rep.pending = pages
}

func (st *CkptStore) promote(step int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.own.promote(step)
	st.rep.promote(step)
}

// arrival summarizes the store for the recovery coordinator.
func (st *CkptStore) arrival(node int) recArrive {
	st.mu.Lock()
	defer st.mu.Unlock()
	return recArrive{
		Node:         node,
		OwnCommitted: st.own.committedStep, OwnPending: st.own.pendingStep,
		RepCommitted: st.rep.committedStep, RepPending: st.rep.pendingStep,
	}
}

// alignTo commits both halves to the agreed recovery step, discarding
// staged deltas for any newer, never-released checkpoint.
func (st *CkptStore) alignTo(step int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.own.promote(step)
	st.own.drop(step)
	st.rep.promote(step)
	st.rep.drop(step)
}

// ownPages returns the committed page numbers of the store's own
// partition (post-alignTo, this is the cumulative set as of the recovery
// step). Recovery re-marks them dirty so the next checkpoint ships the
// full partition and a wiped buddy's replica heals.
func (st *CkptStore) ownPages() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.own.committed))
	for pg := range st.own.committed {
		out = append(out, pg)
	}
	return out
}

// cumulative materializes one half ("own" or "rep") as of step.
func (st *CkptStore) cumulative(rep bool, step int64) ([]ckptPage, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if rep {
		return st.rep.cumulative(step)
	}
	return st.own.cumulative(step)
}

// CorruptForTest flips a byte inside a stored checkpoint page without
// fixing up its checksum — the fault the per-page Sum exists to catch.
// rep selects the replica half. Reports whether anything was damaged.
func (st *CkptStore) CorruptForTest(rep bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	slot := &st.own
	if rep {
		slot = &st.rep
	}
	for pg, cp := range slot.committed {
		if len(cp.Data) > 0 {
			cp.Data = append([]byte(nil), cp.Data...)
			cp.Data[len(cp.Data)/2] ^= 0x40
			slot.committed[pg] = cp
			return true
		}
	}
	for i, cp := range slot.pending {
		if len(cp.Data) > 0 {
			cp.Data = append([]byte(nil), cp.Data...)
			cp.Data[len(cp.Data)/2] ^= 0x40
			slot.pending[i] = cp
			return true
		}
	}
	return false
}

// --- checkpoint messages ---

// ckptPut ships one node's delta checkpoint for a step to its ring buddy
// (bulk class: the payload is page frames).
type ckptPut struct {
	From  int
	Step  int64
	Pages []ckptPage
}

func (m *ckptPut) wire(w *wireRW) {
	w.Int(&m.From)
	w.I64(&m.Step)
	for i := range list(w, &m.Pages, 11) {
		p := &m.Pages[i]
		w.Int(&p.Page)
		w.Payload(&p.Data)
		w.I32(&p.Proto)
		fixed64(w, &p.Sum)
	}
}

func (m ckptPut) Size() int { var w wireRW; m.wire(&w); return w.n }

// ckptAck acknowledges that a delta is in the buddy's store. It is one
// reserved zero count, which a decoder holds to zero so encode∘decode stays
// a fixed point.
type ckptAck struct{}

func (*ckptAck) wire(w *wireRW) { var z int; w.Int(&z); w.check(z == 0) }
func (m ckptAck) Size() int     { var w wireRW; m.wire(&w); return w.n }

// recArrive is one node's checkpoint inventory, sent to the recovery
// coordinator (node 0) when a rebuilt cluster starts in recovery mode.
type recArrive struct {
	Node         int
	OwnCommitted int64
	OwnPending   int64
	RepCommitted int64
	RepPending   int64
}

func (m *recArrive) wire(w *wireRW) {
	w.Int(&m.Node)
	w.I64(&m.OwnCommitted)
	w.I64(&m.OwnPending)
	w.I64(&m.RepCommitted)
	w.I64(&m.RepPending)
}

func (m recArrive) Size() int { var w wireRW; m.wire(&w); return w.n }

// recRelease announces the agreed recovery step and, per partition, the
// rank that restores it (owner if its store survived, else the buddy).
// Step -1 means no checkpoint ever committed: restart from the beginning.
type recRelease struct {
	Step     int64
	Restorer []int
}

func (m *recRelease) wire(w *wireRW) {
	w.I64(&m.Step)
	for i := range list(w, &m.Restorer, 8) {
		fixed64(w, &m.Restorer[i])
	}
}

func (m recRelease) Size() int { var w wireRW; m.wire(&w); return w.n }

// recProtoArrive carries the per-page protocol bindings of the partitions
// a node restores, expressed as the adaptive seam's policy switches.
type recProtoArrive struct {
	Node     int
	Switches []policySwitch
}

func (m *recProtoArrive) wire(w *wireRW) { w.Int(&m.Node); w.Switches(&m.Switches) }
func (m recProtoArrive) Size() int       { var w wireRW; m.wire(&w); return w.n }

// recProtoRelease is the merged switch set every node applies before any
// restore write, so the restored bytes travel under their checkpointed
// protocols from the first fault on.
type recProtoRelease struct {
	Switches []policySwitch
}

func (m *recProtoRelease) wire(w *wireRW) { w.Switches(&m.Switches) }
func (m recProtoRelease) Size() int       { var w wireRW; m.wire(&w); return w.n }

// --- checkpoint barrier (process context) ---

// BarrierCkpt is Barrier plus a durable checkpoint of the step just
// finished. All nodes must call it at the same step (like Barrier itself);
// with checkpointing disabled (no store) it degrades to a plain Barrier.
//
// The snapshot happens in the quiet window between the application
// barrier's release and the commit round's release: no node runs
// application code in that window, so validating a page yields its bytes
// as of the cut regardless of which node materializes them.
func (n *Node) BarrierCkpt(step int64) {
	n.Barrier()
	if n.ckpt == nil {
		return
	}
	procs := n.c.params.Procs
	used := n.c.usedPages()
	var pages []ckptPage
	for pg := n.id; pg < used; pg += procs {
		if !n.ckptDirty[pg] {
			continue
		}
		n.validate(pg)
		ps := n.pages[pg]
		if ps.data == nil {
			panic(fmt.Sprintf("dsm: node %d checkpointing page %d with no data after validate", n.id, pg))
		}
		data := append([]byte(nil), ps.data...)
		pages = append(pages, ckptPage{Page: pg, Data: data, Proto: int32(ps.proto), Sum: ckptSum(data)})
		n.ckptDirty[pg] = false
	}
	n.ckpt.stagePending(step, pages)
	if procs > 1 {
		buddy := (n.id + 1) % procs
		n.c.rt.Call(n.proc, buddy, ckptPut{From: n.id, Step: step, Pages: pages})
		// Commit round: its release proves every node's delta reached its
		// buddy, making the checkpoint durable against any single loss.
		n.barrierRound(true)
	}
	n.ckpt.promote(step)
	n.Stats.Checkpoints++
}

// serveCkptPut stores a buddy's delta (handler context).
func (n *Node) serveCkptPut(c transport.Call, from int, m ckptPut) {
	if n.ckpt == nil {
		panic(fmt.Sprintf("dsm: node %d received a checkpoint from node %d but has no store", n.id, from))
	}
	n.ckpt.storeReplica(m.Step, m.Pages)
	c.Reply(ckptAck{})
}

// --- recovery (process context, inside the rebuilt cluster's Run) ---

// recoverMgr is the coordinator-side state of the two recovery rounds.
type recoverMgr struct {
	arrived int
	calls   []transport.Call
	infos   []recArrive

	protoArrived int
	protoCalls   []transport.Call
	switches     []policySwitch
}

// computeRecovery picks the newest step every partition can still provide
// and names each partition's restorer. infos must hold one inventory per
// node, indexed by rank.
func computeRecovery(infos []recArrive, procs int) (int64, []int, error) {
	cover := func(committed, pending int64) int64 {
		if pending > committed {
			return pending
		}
		return committed
	}
	step := int64(-1)
	for p := 0; p < procs; p++ {
		c := cover(infos[p].OwnCommitted, infos[p].OwnPending)
		if procs > 1 {
			buddy := infos[(p+1)%procs]
			if rc := cover(buddy.RepCommitted, buddy.RepPending); rc > c {
				c = rc
			}
		}
		if p == 0 || c < step {
			step = c
		}
	}
	// No partition may hold a committed checkpoint newer than the agreed
	// step: a commit round's release proves cluster-wide coverage of that
	// step, so seeing one without the coverage means more state was lost
	// than the single buddy replica tolerates.
	for p := 0; p < procs; p++ {
		if infos[p].OwnCommitted > step || infos[p].RepCommitted > step {
			return -1, nil, fmt.Errorf("%w: node %d holds a committed checkpoint past recoverable step %d",
				ErrCkptUnrecoverable, p, step)
		}
	}
	if step < 0 {
		return -1, nil, nil
	}
	restorer := make([]int, procs)
	for p := 0; p < procs; p++ {
		switch {
		case cover(infos[p].OwnCommitted, infos[p].OwnPending) >= step:
			restorer[p] = p
		case procs > 1 && cover(infos[(p+1)%procs].RepCommitted, infos[(p+1)%procs].RepPending) >= step:
			restorer[p] = (p + 1) % procs
		default:
			return -1, nil, fmt.Errorf("%w: partition %d has no provider for step %d", ErrCkptUnrecoverable, p, step)
		}
	}
	return step, restorer, nil
}

// RecoverSync is the collective entry point of a recovering incarnation:
// every node calls it first thing in the Run body, before any application
// step. It agrees on the newest recoverable checkpoint, rebinds per-page
// protocols, rewrites the checkpointed bytes through the DSM write path,
// and returns the recovered step (-1: nothing committed, restart from the
// beginning). The caller resumes its step loop at the returned step + 1.
func (n *Node) RecoverSync() int64 {
	if n.ckpt == nil {
		panic("dsm: RecoverSync requires checkpoint stores (Params.CkptStores)")
	}
	procs := n.c.params.Procs
	var rel recRelease
	if procs == 1 {
		infos := []recArrive{n.ckpt.arrival(0)}
		step, restorer, err := computeRecovery(infos, 1)
		if err != nil {
			panic(err)
		}
		rel = recRelease{Step: step, Restorer: restorer}
	} else {
		rel = n.c.rt.Call(n.proc, 0, n.ckpt.arrival(n.id)).(recRelease)
	}
	if rel.Step < 0 {
		return -1
	}
	n.ckpt.alignTo(rel.Step)

	// Gather the partitions this node restores and their protocol
	// bindings. Under a static protocol every binding is a no-op switch;
	// under the adaptive protocol they rebind the per-page policy seam.
	var restores []ckptPage
	var switches []policySwitch
	for p := 0; p < procs; p++ {
		if rel.Restorer[p] != n.id {
			continue
		}
		rep := p != n.id // restoring the predecessor's partition from our replica
		pages, err := n.ckpt.cumulative(rep, rel.Step)
		if err != nil {
			panic(err)
		}
		for _, cp := range pages {
			switches = append(switches, policySwitch{Page: cp.Page, Proto: cp.Proto, Owner: n.id, Version: 1})
		}
		restores = append(restores, pages...)
	}

	// Second round: merge everyone's bindings so all nodes flip together,
	// exactly like a barrier-release switch application.
	if procs > 1 {
		rel2 := n.c.rt.Call(n.proc, 0, recProtoArrive{Node: n.id, Switches: switches}).(recProtoRelease)
		switches = rel2.Switches
	}
	if len(switches) > 0 && n.applyPolicySwitches(switches) {
		// As at a barrier release: no restorer may write (and so flush to
		// a new HLRC home) before every home has flipped the page.
		n.barrierRound(true)
	}

	// Rewrite the checkpointed bytes through the ordinary write path: the
	// protocols generate write notices for them, and the closing barrier
	// invalidates every stale copy cluster-wide.
	sort.Slice(restores, func(i, j int) bool { return restores[i].Page < restores[j].Page })
	for _, cp := range restores {
		addr := cp.Page * mem.PageSize
		if addr >= n.c.allocated {
			panic(fmt.Errorf("%w: checkpointed page %d lies outside the rebuilt segment (non-deterministic Setup?)",
				ErrCkptCorrupt, cp.Page))
		}
		size := mem.PageSize
		if addr+size > n.c.allocated {
			size = n.c.allocated - addr
		}
		b, off := n.access(addr, size, true)
		copy(b[off:off+size], cp.Data[:size])
	}
	// Re-mark the full partition dirty: the next checkpoint ships the
	// whole cumulative set, healing a wiped buddy's replica so a later
	// loss of THIS node's neighbor stays recoverable.
	for _, pg := range n.ckpt.ownPages() {
		n.ckptDirty[pg] = true
	}
	n.Barrier()
	n.Stats.Recoveries++
	return rel.Step
}

// serveRecArrive accumulates inventories at the coordinator and releases
// everyone with the recovery decision (handler context).
func (n *Node) serveRecArrive(c transport.Call, from int, m recArrive) {
	r := &n.c.rec
	if r.infos == nil {
		r.infos = make([]recArrive, n.c.params.Procs)
		for i := range r.infos {
			r.infos[i].Node = -1
		}
	}
	if r.infos[m.Node].Node != -1 {
		panic(fmt.Sprintf("dsm: duplicate recovery arrival from node %d", m.Node))
	}
	r.infos[m.Node] = m
	r.arrived++
	r.calls = append(r.calls, c)
	if r.arrived < n.c.params.Procs {
		return
	}
	step, restorer, err := computeRecovery(r.infos, n.c.params.Procs)
	if err != nil {
		panic(err)
	}
	calls := r.calls
	r.arrived, r.calls, r.infos = 0, nil, nil
	for _, cc := range calls {
		cc.Reply(recRelease{Step: step, Restorer: restorer})
	}
}

// serveRecProto merges the restorers' protocol bindings and releases the
// union to every node (handler context).
func (n *Node) serveRecProto(c transport.Call, from int, m recProtoArrive) {
	r := &n.c.rec
	r.protoArrived++
	r.protoCalls = append(r.protoCalls, c)
	r.switches = append(r.switches, m.Switches...)
	if r.protoArrived < n.c.params.Procs {
		return
	}
	sws := r.switches
	sort.Slice(sws, func(i, j int) bool { return sws[i].Page < sws[j].Page })
	calls := r.protoCalls
	r.protoArrived, r.protoCalls, r.switches = 0, nil, nil
	for _, cc := range calls {
		cc.Reply(recProtoRelease{Switches: sws})
	}
}
