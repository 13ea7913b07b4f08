package harness

// The sim/tcp equivalence check: the same program, protocol and home
// policy run under the deterministic simulator and under the real TCP
// runtime must produce the identical checksum and identical protocol-level
// message/byte counts. The simulator is the oracle; the check is what pins
// the real transport's call semantics (blocking calls, positional
// multicalls, forwarding, deferred replies) to it.
//
// The program is a barrier-only banded stencil with no locks: lock-grant
// order (and therefore float accumulation order and manager-token routing)
// is scheduling-dependent on a real transport, while the barrier-only
// fault/fetch/flush pattern of MW and HLRC is fully determined by the
// happened-before order the barriers impose. SW and the adaptive
// protocols time their ownership decisions (quantum, mid-interval
// arrivals) and are compared by checksum only, not by message count.

import (
	"fmt"

	"adsm"
)

// equivRowWords is the row width in float64s: exactly one page per row.
const equivRowWords = 512

// equivProgram is the deterministic stencil: each node owns a band of
// pages; every iteration is a write-only interval over the own band
// followed by a read-only interval pulling the neighbours' boundary rows,
// and node 0 checksums the whole grid in fixed row-major order. The
// phases matter: a node must never read a page during an interval in
// which its owner writes it, because an in-flight copy (HLRC serves the
// home's own working copy) would expose unreleased writes whose
// visibility is timing-defined — deterministic within one transport but
// not across transports.
type equivProgram struct {
	procs, rowsPer, iters int
	grid                  adsm.Shared[float64]
	sum                   float64
}

func newEquivProgram(procs int) *equivProgram {
	return &equivProgram{procs: procs, rowsPer: 2, iters: 3}
}

func (e *equivProgram) rows() int { return e.procs * e.rowsPer }

func (e *equivProgram) setup(cl *adsm.Cluster) {
	e.grid = adsm.AllocArrayPageAligned[float64](cl, e.rows()*equivRowWords)
}

func (e *equivProgram) at(i, j int) int { return i*equivRowWords + j }

func (e *equivProgram) body(w *adsm.Worker) {
	lo := w.ID() * e.rowsPer
	hi := lo + e.rowsPer
	edgeUp := make([]float64, equivRowWords)
	edgeDown := make([]float64, equivRowWords)

	// Write-only interval: seed the own band.
	for i := lo; i < hi; i++ {
		for j := 0; j < equivRowWords; j++ {
			e.grid.Set(w, e.at(i, j), float64(i*equivRowWords+j))
		}
	}
	w.Barrier()

	for it := 0; it < e.iters; it++ {
		// Read-only interval: pull the neighbours' boundary rows into
		// private buffers (nobody writes shared memory here).
		if lo > 0 {
			for j := 0; j < equivRowWords; j++ {
				edgeUp[j] = e.grid.At(w, e.at(lo-1, j))
			}
		}
		if hi < e.rows() {
			for j := 0; j < equivRowWords; j++ {
				edgeDown[j] = e.grid.At(w, e.at(hi, j))
			}
		}
		w.Barrier()

		// Write-only interval: update the own band from its previous
		// values and the privately-held edges.
		for i := lo; i < hi; i++ {
			for j := 0; j < equivRowWords; j += 7 {
				v := e.grid.At(w, e.at(i, j)) + edgeUp[j] + edgeDown[j] + float64(it)
				e.grid.Set(w, e.at(i, j), v/2)
			}
		}
		w.Barrier()
	}

	// Read-only scan: node 0 checksums the grid in row-major order.
	if w.ID() == 0 {
		s := 0.0
		for i := 0; i < e.rows(); i++ {
			for j := 0; j < equivRowWords; j++ {
				s += e.grid.At(w, e.at(i, j))
			}
		}
		e.sum = s
	}
	w.Barrier()
}

// run executes the program under one transport and returns (report, sum).
func (e *equivProgram) run(cfg adsm.Config) (*adsm.Report, float64, error) {
	cl := adsm.NewCluster(cfg)
	e.setup(cl)
	rep, err := cl.Run(e.body)
	if err != nil {
		return nil, 0, err
	}
	return rep, e.sum, nil
}

// TransportCheck is one protocol's sim-vs-tcp comparison.
type TransportCheck struct {
	Proto          adsm.Protocol
	Sim, TCP       *adsm.Report
	SimSum, TCPSum float64
	// CountsChecked reports whether message/byte equality was asserted
	// (false for the timing-dependent protocols, checksum-only).
	CountsChecked bool
}

// TransportEquivalence runs the deterministic stencil under the simulator
// and the in-process TCP mesh for every given protocol and asserts
// identical checksums; for the timing-independent protocols (MW, HLRC) it
// additionally asserts identical message and byte counts.
func TransportEquivalence(procs int, protos []adsm.Protocol) ([]TransportCheck, error) {
	var out []TransportCheck
	for _, proto := range protos {
		countable := proto == adsm.MW || proto == adsm.HLRC
		base := adsm.Config{Procs: procs, Protocol: proto}

		sim := newEquivProgram(procs)
		simRep, simSum, err := sim.run(base)
		if err != nil {
			return out, fmt.Errorf("equivalence: %v under sim: %w", proto, err)
		}

		tcp := newEquivProgram(procs)
		tcfg := base
		adsm.WithTransport(adsm.TCPTransport)(&tcfg)
		tcpRep, tcpSum, err := tcp.run(tcfg)
		if err != nil {
			return out, fmt.Errorf("equivalence: %v under tcp: %w", proto, err)
		}

		c := TransportCheck{Proto: proto, Sim: simRep, TCP: tcpRep,
			SimSum: simSum, TCPSum: tcpSum, CountsChecked: countable}
		out = append(out, c)

		if simSum != tcpSum {
			return out, fmt.Errorf("equivalence: %v checksum diverged: sim %v, tcp %v",
				proto, simSum, tcpSum)
		}
		if countable {
			if simRep.Stats.Messages != tcpRep.Stats.Messages {
				return out, fmt.Errorf("equivalence: %v message count diverged: sim %d, tcp %d",
					proto, simRep.Stats.Messages, tcpRep.Stats.Messages)
			}
			if simRep.Stats.DataBytes != tcpRep.Stats.DataBytes {
				return out, fmt.Errorf("equivalence: %v byte count diverged: sim %d, tcp %d",
					proto, simRep.Stats.DataBytes, tcpRep.Stats.DataBytes)
			}
		}
	}
	return out, nil
}
