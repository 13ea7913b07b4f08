package adsm

import (
	"fmt"
	"strings"
	"time"

	"adsm/internal/core"
	"adsm/internal/transport"
	"adsm/internal/transport/tcp"
)

// Transport selects the substrate that carries a cluster's protocol
// messages. The protocols are substrate-agnostic: the same policy code
// drives the deterministic simulator (the test oracle, calibrated to the
// paper's 155 Mbps ATM network) and the real TCP runtime.
type Transport int

const (
	// SimTransport is the deterministic discrete-event simulator (the
	// default): virtual time, reproducible runs, the paper's cost model.
	SimTransport Transport = iota
	// TCPTransport runs the same protocols over real TCP connections —
	// an in-process loopback mesh by default, or one endpoint of a
	// multi-process deployment when Config.TCP names peers (see the
	// dsmnode command).
	TCPTransport
)

var transportNames = []struct {
	name, desc string
}{
	SimTransport: {"sim", "deterministic discrete-event simulator (virtual time, the paper's cost model)"},
	TCPTransport: {"tcp", "real TCP runtime: binary frames over net.Conn, in-process mesh or multi-process peers"},
}

func (t Transport) String() string {
	if int(t) < 0 || int(t) >= len(transportNames) {
		return "?"
	}
	return transportNames[t].name
}

// Description returns the transport's one-line summary.
func (t Transport) Description() string {
	if int(t) < 0 || int(t) >= len(transportNames) {
		return ""
	}
	return transportNames[t].desc
}

// ParseTransport resolves a transport name ("sim", "tcp"),
// case-insensitively.
func ParseTransport(name string) (Transport, error) {
	for i, e := range transportNames {
		if strings.EqualFold(strings.TrimSpace(name), e.name) {
			return Transport(i), nil
		}
	}
	return 0, fmt.Errorf("adsm: unknown transport %q (registered: %s)",
		name, strings.Join(TransportNames(), ", "))
}

// TransportNames lists the registered transports.
func TransportNames() []string {
	out := make([]string, len(transportNames))
	for i, e := range transportNames {
		out[i] = e.name
	}
	return out
}

// WithTransport returns a Config mutator selecting the transport —
// convenient for sweeps and the sim/tcp equivalence harness.
func WithTransport(t Transport) func(*Config) {
	return func(c *Config) { c.Transport = t }
}

// TCPConfig tunes the TCP transport. The zero value runs the whole
// cluster as an in-process loopback mesh: every node a goroutine endpoint,
// every pair of nodes a real socket.
type TCPConfig struct {
	// Addrs gives every node's listen address, indexed by node id. Empty
	// picks loopback addresses automatically (single-process mode).
	Addrs []string
	// Local lists the node ids hosted by this OS process. Empty hosts all
	// of them. A process hosting a subset is one endpoint of a
	// multi-process run: statistics and checksums it reports cover its
	// own nodes only, and garbage-collecting protocols (MW under memory
	// pressure) are not supported — use HLRC or raise DiffSpaceLimit.
	Local []int
	// Timescale turns the modelled compute costs (Worker.Compute, diff
	// creation, the ownership quantum) into real sleeps scaled by this
	// factor; 0 skips them so runs finish as fast as the wire allows.
	Timescale float64
	// DialTimeout bounds how long cluster construction waits for the
	// peer mesh (default 20s).
	DialTimeout time.Duration
	// Fingerprint is an opaque summary of the run configuration (the
	// CLIs encode app, protocol, home policy, procs and input size).
	// Peers exchange it in the mesh handshake and refuse to connect on
	// a mismatch; empty fingerprints always match.
	Fingerprint string
	// ForceGob carries every message in the gob escape frame instead of
	// its binary codec — the debugging/CI knob (dsmrun -wire gob) that
	// exercises the fallback path end to end. Results are identical
	// either way; only the framing cost changes.
	ForceGob bool
	// Lanes is the number of data connections per ordered node pair:
	// 1 is the classic single shared connection, 2 (the default, chosen
	// when this is 0) adds a dedicated bulk lane so large page and diff
	// payloads never head-of-line block a latency-critical barrier
	// release or ownership grant. Every participant of a multi-process
	// run must use the same value.
	Lanes int
	// Epoch is the membership epoch of this mesh incarnation. Every
	// participant must be at the same epoch; survivors of a node loss
	// re-mesh at epoch+1 so a stale process from the dead incarnation
	// cannot rejoin. -1 is the recovering-node wildcard (`dsmnode
	// -recover`): it adopts the epoch of the peers it meshes with.
	Epoch int64
	// LeaseTerm enables membership leases: endpoints heartbeat each peer
	// on the control lane and a peer silent for a full term is declared
	// dead (Run returns ErrLeaseExpired) even if its socket still looks
	// open. Zero disables leases — loss is then detected only by
	// connection errors (ErrPeerLost). All participants must agree.
	LeaseTerm time.Duration
	// Faults, when non-nil, perturbs outgoing frames for fault-injection
	// tests. Zero (nil) leaves the data plane untouched.
	Faults FrameFaults
	// NoOneSided disables the one-sided region-read path. The zero value
	// enables it: each pair gets one extra connection (the region lane)
	// and clean page fetches are served straight from the peer's
	// registered page-frame arena, bypassing the protocol handler and
	// its state lock. Results are identical either way — a region miss
	// falls back to the ordinary handler path. Every participant must
	// use the same value.
	NoOneSided bool
}

// FrameFaults perturbs the TCP transport's outgoing frames for
// fault-injection tests: drop a frame, or delay it before the socket
// write. Hooks run on writer goroutines (never under protocol locks) and
// must be safe for concurrent use.
type FrameFaults interface {
	// DropFrame reports whether the frame from->to on the given lane
	// should be silently discarded.
	DropFrame(from, to, lane int) bool
	// DelayFrame returns an extra delay to impose before writing the
	// frame (0 = none).
	DelayFrame(from, to, lane int) time.Duration
}

// RunFingerprint builds the canonical configuration fingerprint the CLIs
// put in TCPConfig.Fingerprint: every participant of a multi-process run
// (each dsmnode peer and the dsmrun coordinator) must produce the same
// string or the mesh handshake refuses to connect.
func RunFingerprint(app string, proto Protocol, home HomePolicy, procs int, quick bool) string {
	return fmt.Sprintf("app=%s protocol=%v home=%v procs=%d quick=%v", app, proto, home, procs, quick)
}

// transportError marks a transport construction failure so NewClusterErr
// can convert exactly these panics into errors and let genuine bugs crash
// with their stack trace.
type transportError struct{ err error }

// runtimeFactory builds the core runtime factory for a config, or nil for
// the default simulator.
func (cfg Config) runtimeFactory() core.RuntimeFactory {
	if cfg.Transport != TCPTransport {
		return nil
	}
	tc := cfg.TCP
	return func(p core.Params) transport.Runtime {
		rt, err := tcp.New(tcp.Options{
			Procs:       p.Procs,
			Local:       tc.Local,
			Addrs:       tc.Addrs,
			Timescale:   tc.Timescale,
			DialTimeout: tc.DialTimeout,
			Fingerprint: tc.Fingerprint,
			ForceGob:    tc.ForceGob,
			Lanes:       tc.Lanes,
			OneSided:    !tc.NoOneSided,
			Epoch:       tc.Epoch,
			LeaseTerm:   tc.LeaseTerm,
			Faults:      tc.Faults,
		})
		if err != nil {
			panic(transportError{fmt.Errorf("adsm: tcp transport: %w", err)})
		}
		return rt
	}
}
