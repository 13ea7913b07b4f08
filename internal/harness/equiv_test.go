package harness

import (
	"testing"

	"adsm"
)

// TestTransportEquivalence pins the real TCP runtime to the simulator
// oracle: same program, same protocol — identical checksums, and for the
// timing-independent protocols identical message and byte counts.
func TestTransportEquivalence(t *testing.T) {
	checks, err := TransportEquivalence(4, []adsm.Protocol{adsm.MW, adsm.HLRC})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.CountsChecked {
			t.Errorf("%v: expected message-count comparison for a timing-independent protocol", c.Proto)
		}
		t.Logf("%v: checksum %v, %d msgs, %d bytes on both transports",
			c.Proto, c.SimSum, c.Sim.Stats.Messages, c.Sim.Stats.DataBytes)
	}
}

// TestTransportEquivalenceChecksumOnly covers the timing-dependent
// protocols (ownership decisions depend on arrival timing, so message
// counts legitimately differ): the data each transport computes must
// still agree exactly. The adaptive meta-protocol belongs here too — its
// switch decisions read the detector's diff statistics, and diff creation
// under MW is demand-driven, so which diffs exist at decision time can
// differ across transports.
func TestTransportEquivalenceChecksumOnly(t *testing.T) {
	checks, err := TransportEquivalence(4, []adsm.Protocol{adsm.SW, adsm.WFS, adsm.WFSWG, adsm.Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if c.CountsChecked {
			t.Errorf("%v: unexpectedly compared message counts for a timing-dependent protocol", c.Proto)
		}
		t.Logf("%v: checksum %v (sim %d msgs, tcp %d msgs)",
			c.Proto, c.SimSum, c.Sim.Stats.Messages, c.TCP.Stats.Messages)
	}
}
