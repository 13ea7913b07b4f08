package core

import (
	"fmt"
	"strings"
)

// Protocol identifies one of the DSM protocols. The set is closed: a
// protocol is one Policy implementation in this package plus one row of
// protocolTable. The ids, names and listing order are API — Params.Protocol
// values keep meaning the same protocol across releases.
type Protocol int

const (
	// MW is the TreadMarks multiple-writer protocol.
	MW Protocol = iota
	// SW is the CVM-like single-writer protocol.
	SW
	// WFS adapts between SW and MW based on write-write false sharing.
	WFS
	// WFSWG adapts based on false sharing and write granularity.
	WFSWG
	// HLRC is home-based lazy release consistency (hlrc.go).
	HLRC
	// Adaptive is the per-page meta-protocol (meta.go).
	Adaptive
)

// tableEntry names one protocol or home policy: its canonical name, the
// alternative spellings the parsers accept (case-insensitive, like the
// name), and a one-line summary for CLI listings.
type tableEntry struct {
	name    string
	aliases []string
	desc    string
}

var protocolTable = [...]tableEntry{
	MW:       {"MW", nil, "TreadMarks multiple-writer (twins and diffs)"},
	SW:       {"SW", nil, "CVM-like single-writer (page ownership, versions, static homes)"},
	WFS:      {"WFS", nil, "adapts per page between SW and MW on write-write false sharing"},
	WFSWG:    {"WFS+WG", []string{"WFSWG"}, "WFS plus write-granularity adaptation (3 KB threshold)"},
	HLRC:     {"HLRC", nil, "home-based LRC: eager diff flush to static per-page homes"},
	Adaptive: {"adaptive", []string{"adapt", "meta"}, "meta-protocol: pages migrate between WFS, MW and HLRC at barrier epochs"},
}

// policies holds the stateless policy of every static protocol, shared by
// all clusters. The adaptive meta-policy carries per-cluster state, so its
// slot stays nil and newPolicy builds one per cluster.
var policies = [len(protocolTable)]Policy{
	MW:    mwPolicy{},
	SW:    swPolicy{},
	WFS:   adaptivePolicy{},
	WFSWG: adaptivePolicy{wg: true},
	HLRC:  hlrcPolicy{},
}

// newPolicy returns the policy a cluster running protocol p starts with,
// panicking on an unknown id (a Params misconfiguration).
func (p Protocol) newPolicy() Policy {
	if !p.valid() {
		panic(fmt.Sprintf("dsm: unknown protocol id %d", int(p)))
	}
	if p == Adaptive {
		return &metaPolicy{}
	}
	return policies[p]
}

func (p Protocol) valid() bool { return p >= 0 && int(p) < len(protocolTable) }

func (p Protocol) String() string {
	if !p.valid() {
		return "?"
	}
	return protocolTable[p].name
}

// Description returns the protocol's one-line summary.
func (p Protocol) Description() string {
	if !p.valid() {
		return ""
	}
	return protocolTable[p].desc
}

// ParseProtocol resolves a protocol name — canonical or alias,
// case-insensitive — to its id.
func ParseProtocol(name string) (Protocol, error) {
	if i, ok := lookupName(protocolTable[:], name); ok {
		return Protocol(i), nil
	}
	return 0, fmt.Errorf("dsm: unknown protocol %q (known: %s)",
		name, strings.Join(ProtocolNames(), ", "))
}

// Protocols lists every protocol in id order.
func Protocols() []Protocol {
	out := make([]Protocol, len(protocolTable))
	for i := range out {
		out[i] = Protocol(i)
	}
	return out
}

// ProtocolNames lists the canonical protocol names in id order.
func ProtocolNames() []string { return tableNames(protocolTable[:]) }

// lookupName returns the index of the table row whose name or alias is
// name, ignoring case and surrounding space.
func lookupName(table []tableEntry, name string) (int, bool) {
	name = strings.TrimSpace(name)
	for i, e := range table {
		if strings.EqualFold(name, e.name) {
			return i, true
		}
		for _, a := range e.aliases {
			if strings.EqualFold(name, a) {
				return i, true
			}
		}
	}
	return 0, false
}

func tableNames(table []tableEntry) []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}
