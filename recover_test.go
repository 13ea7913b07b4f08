package adsm

import (
	"errors"
	"testing"

	"adsm/internal/transport"
)

// recStencil builds the recoverable test workload: a double-buffered
// banded stencil. Two grids of rows (one page per row), nodes own
// contiguous bands; step s reads the grid written at s-1 (rows r-1..r+1,
// so bands share pages at their edges) and writes the other grid. Every
// step is recomputable from (rank, step, shared memory) alone — the
// Recoverable contract — and no page is ever read in an interval its
// owner writes it, so checksums are bit-identical across transports,
// protocols, and kill points.
func recStencil(procs, rowsPer, words, steps, every int, sum *uint64) Recoverable {
	const rowStride = PageSize / 8 // one page of uint64 per row
	rows := procs * rowsPer
	var grids [2]Shared[uint64]
	mix := func(a, b, c, s uint64) uint64 {
		h := a*3 + b*5 + c*7 + s*11 + 13
		h ^= h >> 29
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 32
		return h
	}
	return Recoverable{
		Steps:     steps,
		CkptEvery: every,
		Setup: func(cl *Cluster) {
			grids[0] = AllocArrayPageAligned[uint64](cl, rows*rowStride)
			grids[1] = AllocArrayPageAligned[uint64](cl, rows*rowStride)
		},
		Step: func(w *Worker, s int) {
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
		Finish: func(w *Worker) {
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

// TestRecoverableKillMatchesOracle kills nodes between barriers under the
// TCP transport and requires every recovered run to reproduce the
// fault-free simulator oracle's checksum bit for bit, across the
// single-writer-sensitive protocol set.
func TestRecoverableKillMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many tcp meshes")
	}
	const procs, rowsPer, words, steps, every = 4, 2, 64, 8, 2
	for _, proto := range []Protocol{MW, HLRC, Adaptive} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			cfg := Config{Procs: procs, Protocol: proto}
			var want uint64
			if _, err := RunRecoverable(cfg, recStencil(procs, rowsPer, words, steps, every, &want), FaultPlan{}); err != nil {
				t.Fatalf("sim oracle: %v", err)
			}
			cases := []struct {
				name  string
				kills []Kill
			}{
				{"nofault", nil},
				{"kill1@3", []Kill{{Node: 1, Step: 3}}},
				{"kill3@6", []Kill{{Node: 3, Step: 6}}},
				{"kill1@2+2@5", []Kill{{Node: 1, Step: 2}, {Node: 2, Step: 5}}},
			}
			for _, tc := range cases {
				tcfg := cfg
				tcfg.Transport = TCPTransport
				var got uint64
				if _, err := RunRecoverable(tcfg, recStencil(procs, rowsPer, words, steps, every, &got), FaultPlan{Kills: tc.kills}); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if got != want {
					t.Errorf("%s: checksum %#x, want oracle %#x", tc.name, got, want)
				}
			}
		})
	}
}

// TestRecoverableSimCkptMatchesPlain pins that checkpointing is
// semantically invisible: a checkpointing sim run and a plain sim run of
// the same stencil produce the same checksum.
func TestRecoverableSimCkptMatchesPlain(t *testing.T) {
	const procs, rowsPer, words, steps = 4, 1, 32, 6
	var every1, every3 uint64
	if _, err := RunRecoverable(Config{Procs: procs}, recStencil(procs, rowsPer, words, steps, 1, &every1), FaultPlan{}); err != nil {
		t.Fatalf("every=1: %v", err)
	}
	if _, err := RunRecoverable(Config{Procs: procs}, recStencil(procs, rowsPer, words, steps, 3, &every3), FaultPlan{}); err != nil {
		t.Fatalf("every=3: %v", err)
	}
	if every1 != every3 {
		t.Errorf("checksum depends on checkpoint cadence: %#x vs %#x", every1, every3)
	}
}

// TestErrorTaxonomy pins the typed failure conditions' errors.Is behavior:
// zero-value targets match any node.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err    error
		target error
	}{
		{transport.ErrPeerLost{Node: 3}, ErrPeerLost},
		{transport.ErrLeaseExpired{Node: 7}, ErrLeaseExpired},
	}
	for _, c := range cases {
		wrapped := errorsWrap(c.err)
		if !errors.Is(wrapped, c.target) {
			t.Errorf("errors.Is(%v, %v) = false, want true", wrapped, c.target)
		}
	}
	if errors.Is(transport.ErrPeerLost{Node: 1}, ErrLeaseExpired) {
		t.Error("ErrPeerLost must not match ErrLeaseExpired")
	}
	if !errors.Is(errorsWrap(ErrCkptCorrupt), ErrCkptCorrupt) ||
		!errors.Is(errorsWrap(ErrCkptUnrecoverable), ErrCkptUnrecoverable) {
		t.Error("checkpoint errors must survive wrapping")
	}
}

func errorsWrap(err error) error {
	return &wrapErr{err}
}

type wrapErr struct{ err error }

func (w *wrapErr) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }
