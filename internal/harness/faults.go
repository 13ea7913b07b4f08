package harness

import (
	"fmt"
	"time"

	"adsm"
)

// The fault-tolerance experiment (`dsmbench -exp faults`): a recoverable
// double-buffered stencil run under the single-writer-sensitive protocol
// set with barrier-checkpoint replication, then re-run on the real TCP
// mesh with nodes killed between barriers. Every cell's final-grid
// checksum must equal the fault-free simulator oracle's bit for bit —
// recovery that loses or duplicates a step shows up as a mismatch and the
// sweep panics, like the serve sweep's model verification.

// FaultCell is one fault-tolerance measurement: a protocol on a transport
// under one fault scenario.
type FaultCell struct {
	Proto     adsm.Protocol
	Transport adsm.Transport
	// Scenario names the cell: "plain" (no checkpoints), "ckpt"
	// (checkpointing, no faults), or "kill n@s[,n@s...]".
	Scenario string

	Report   *adsm.Report
	Checksum uint64
	// Elapsed is virtual time for sim cells, wall clock for tcp cells.
	Elapsed time.Duration
}

// faultProtos is the protocol set the sweep exercises: the paper's
// multi-writer baseline, the home-based protocol (whose per-page homes
// recovery must rebuild), and the adaptive meta-protocol (whose per-page
// policy state rides the checkpoint stream), intersected with the
// matrix's -protocols restriction.
func (m *Matrix) faultProtos() []adsm.Protocol {
	want := []adsm.Protocol{adsm.MW, adsm.HLRC, adsm.Adaptive}
	var out []adsm.Protocol
	for _, p := range want {
		for _, q := range m.protocols() {
			if p == q {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// faultParams sizes the stencil: one page per row, nodes own contiguous
// row bands, step s reads the grid written at s-1 and writes the other —
// recomputable from (rank, step, shared memory), the Recoverable
// contract.
func (m *Matrix) faultParams() (rowsPer, words, steps, every int) {
	if m.Quick {
		return 2, 32, 8, 2
	}
	return 2, 128, 12, 2
}

// RecoverableStencil builds the recoverable workload the fault sweep and
// `dsmnode -recoverable` share; the checksum is folded on node 0 into
// *sum after the last step. Every participant of a distributed run must
// use identical parameters — the checksum is a pure function of them.
func RecoverableStencil(procs, rowsPer, words, steps, every int, sum *uint64) adsm.Recoverable {
	rowStride := adsm.PageSize / 8
	rows := procs * rowsPer
	var grids [2]adsm.Shared[uint64]
	mix := func(a, b, c, s uint64) uint64 {
		h := a*3 + b*5 + c*7 + s*11 + 13
		h ^= h >> 29
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 32
		return h
	}
	return adsm.Recoverable{
		Steps:     steps,
		CkptEvery: every,
		Setup: func(cl *adsm.Cluster) {
			grids[0] = adsm.AllocArrayPageAligned[uint64](cl, rows*rowStride)
			grids[1] = adsm.AllocArrayPageAligned[uint64](cl, rows*rowStride)
		},
		Step: func(w *adsm.Worker, s int) {
			src, dst := grids[s%2], grids[1-s%2]
			for r := w.ID() * rowsPer; r < (w.ID()+1)*rowsPer; r++ {
				up, down := r-1, r+1
				if up < 0 {
					up = r
				}
				if down >= rows {
					down = r
				}
				for i := 0; i < words; i++ {
					v := mix(src.At(w, up*rowStride+i), src.At(w, r*rowStride+i),
						src.At(w, down*rowStride+i), uint64(s))
					dst.Set(w, r*rowStride+i, v)
				}
			}
		},
		Finish: func(w *adsm.Worker) {
			if w.ID() != 0 {
				return
			}
			final := grids[steps%2]
			h := uint64(0)
			for r := 0; r < rows; r++ {
				for i := 0; i < words; i++ {
					h = mix(h, final.At(w, r*rowStride+i), uint64(r), uint64(i))
				}
			}
			*sum = h
		},
	}
}

// faultRun executes one fault cell (cached per (proto, transport,
// scenario) like the serve cells: sim cells are deterministic, tcp cells
// are cached only to avoid re-running within one report). every > steps
// disables checkpointing entirely (the "plain" baseline the checkpoint
// overhead is measured against).
func (m *Matrix) faultRun(proto adsm.Protocol, tr adsm.Transport, scenario string,
	every int, kills []adsm.Kill) FaultCell {
	key := fmt.Sprintf("%v|%v|%s", proto, tr, scenario)
	m.mu.Lock()
	if m.faults == nil {
		m.faults = make(map[string]FaultCell)
	}
	if c, ok := m.faults[key]; ok {
		m.mu.Unlock()
		return c
	}
	m.mu.Unlock()
	c := m.faultRunUncached(proto, tr, scenario, every, kills)
	m.mu.Lock()
	m.faults[key] = c
	m.mu.Unlock()
	return c
}

func (m *Matrix) faultRunUncached(proto adsm.Protocol, tr adsm.Transport, scenario string,
	every int, kills []adsm.Kill) FaultCell {
	rowsPer, words, steps, _ := m.faultParams()
	var sum uint64
	cfg := adsm.Config{Procs: m.Procs, Protocol: proto, HomePolicy: m.Home, Transport: tr}
	prog := RecoverableStencil(m.Procs, rowsPer, words, steps, every, &sum)
	start := time.Now()
	rep, err := adsm.RunRecoverable(cfg, prog, adsm.FaultPlan{Kills: kills})
	wall := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("harness: faults %v/%v %s: %v", proto, tr, scenario, err))
	}
	elapsed := rep.Elapsed
	if tr == adsm.TCPTransport {
		elapsed = wall
	}
	return FaultCell{Proto: proto, Transport: tr, Scenario: scenario,
		Report: rep, Checksum: sum, Elapsed: elapsed}
}

// faultKills places the sweep's kill points: a mid-run single kill, a
// late single kill of the highest rank, and a double kill — each in a
// different checkpoint interval.
func (m *Matrix) faultKills() [][]adsm.Kill {
	_, _, steps, _ := m.faultParams()
	last := m.Procs - 1
	return [][]adsm.Kill{
		{{Node: 1, Step: steps / 2}},
		{{Node: last, Step: steps - 2}},
		{{Node: 1, Step: steps / 4}, {Node: 2, Step: steps - 3}},
	}
}

func killScenario(kills []adsm.Kill) string {
	s := "kill "
	for i, k := range kills {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d@%d", k.Node, k.Step)
	}
	return s
}

// FaultSweepData runs the fault-tolerance experiment. Per protocol: the
// fault-free simulator cells ("plain" without checkpoints and "ckpt" with
// them — the checkpoint overhead in virtual time and messages), and with
// tcp set, the TCP cells: checkpointing without faults, then every kill
// scenario. Every cell's checksum must equal the sim oracle's.
func (m *Matrix) FaultSweepData(tcp bool) []FaultCell {
	_, _, steps, every := m.faultParams()
	var out []FaultCell
	for _, proto := range m.faultProtos() {
		plain := m.faultRun(proto, adsm.SimTransport, "plain", steps+1, nil)
		oracle := m.faultRun(proto, adsm.SimTransport, "ckpt", every, nil)
		if oracle.Checksum != plain.Checksum {
			panic(fmt.Sprintf("harness: faults %v: checkpointing changed results: %#x != %#x",
				proto, oracle.Checksum, plain.Checksum))
		}
		out = append(out, plain, oracle)
		if !tcp {
			continue
		}
		cells := []FaultCell{m.faultRun(proto, adsm.TCPTransport, "ckpt", every, nil)}
		for _, kills := range m.faultKills() {
			cells = append(cells, m.faultRun(proto, adsm.TCPTransport, killScenario(kills), every, kills))
		}
		for _, c := range cells {
			if c.Checksum != oracle.Checksum {
				panic(fmt.Sprintf("harness: faults %v/%s: checksum %#x != sim oracle %#x",
					proto, c.Scenario, c.Checksum, oracle.Checksum))
			}
		}
		out = append(out, cells...)
	}
	return out
}

// FaultSweep renders the fault-tolerance experiment.
func (m *Matrix) FaultSweep(tcp bool) string {
	rowsPer, words, steps, every := m.faultParams()
	cells := m.FaultSweepData(tcp)
	t := &table{header: []string{"Protocol", "Transport", "Scenario", "Elapsed (ms)",
		"Msgs", "Data (MB)", "Ckpts", "Recoveries", "Checksum"}}
	for _, c := range cells {
		s := c.Report.Stats
		t.add(c.Proto.String(), c.Transport.String(), c.Scenario,
			fmt.Sprintf("%.2f", float64(c.Elapsed.Microseconds())/1000),
			fmt.Sprint(s.Messages),
			fmt.Sprintf("%.2f", c.Report.DataMB()),
			fmt.Sprint(s.Checkpoints),
			fmt.Sprint(s.Recoveries),
			fmt.Sprintf("%#x", c.Checksum))
	}
	return fmt.Sprintf("Faults: recoverable stencil, %d workers x %d rows x %d words, %d steps, checkpoint every %d\n"+
		"(kill cells SIGKILL-equivalently sever a node between barriers; every checksum\n"+
		" must equal the fault-free sim oracle's — a mismatch panics the sweep)\n\n%s",
		m.Procs, m.Procs*rowsPer, words, steps, every, t.String())
}
