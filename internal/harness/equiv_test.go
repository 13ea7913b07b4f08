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
		if c.Proto == adsm.HLRC && c.TCP.Stats.OneSidedReads == 0 {
			// The default mesh has the region lane: the stencil's home
			// fetches must actually ride it, or the one-sided path is dead
			// code that the count equivalence above no longer exercises.
			t.Errorf("%v: no fetch went one-sided on the default mesh", c.Proto)
		}
		t.Logf("%v: checksum %v, %d msgs, %d bytes on both transports (%d one-sided reads)",
			c.Proto, c.SimSum, c.Sim.Stats.Messages, c.Sim.Stats.DataBytes, c.TCP.Stats.OneSidedReads)
	}
}

// TestTransportEquivalenceNoOneSided disables the one-sided read path: every fetch takes the handler
// path, and counts still match the simulator — pinning that the one-sided
// machinery is strictly optional and its fallback is the whole story.
func TestTransportEquivalenceNoOneSided(t *testing.T) {
	noOneSided := func(c *adsm.Config) { c.TCP.NoOneSided = true }
	checks, err := TransportEquivalence(4, []adsm.Protocol{adsm.MW, adsm.HLRC}, noOneSided)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.CountsChecked {
			t.Errorf("%v: expected message-count comparison with one-sided reads off", c.Proto)
		}
		if c.TCP.Stats.OneSidedReads != 0 {
			t.Errorf("%v: %d one-sided reads served with the path disabled", c.Proto, c.TCP.Stats.OneSidedReads)
		}
		if c.TCP.Stats.OneSidedFallbacks != 0 {
			t.Errorf("%v: %d one-sided fallbacks on a mesh without a region lane", c.Proto, c.TCP.Stats.OneSidedFallbacks)
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
