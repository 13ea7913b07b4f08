package harness

import (
	"strings"
	"testing"

	"adsm"
	"adsm/internal/kv"
)

// tinyServe is a serve sweep small enough for unit tests while keeping
// the properties the sweep asserts (skewed mix, real contention, a
// write-heavy arm).
func tinyServe() ServeOptions {
	base := kv.DefaultWorkload()
	base.Keys = 256
	base.OpsPerWorker = 120
	return ServeOptions{Workload: base}
}

// TestServeSweepSim: every protocol's sim cell matches the model checksum
// (serveRun panics otherwise), the write-heavy arm runs last, and cells
// carry real latency distributions.
func TestServeSweepSim(t *testing.T) {
	m := NewMatrix(true)
	m.Procs = 4
	cells := m.ServeSweepData(false, tinyServe())
	protos := m.protocols()
	// Six base cells + the write-heavy cell.
	if want := len(protos) + 1; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	sum := cells[0].Checksum
	for _, c := range cells {
		if c.Transport != adsm.SimTransport {
			t.Errorf("%v: tcp cell in a sim-only sweep", c.Proto)
		}
		if c.Variant == "" {
			if c.Checksum != sum {
				t.Errorf("%v: checksum %#x != %#x", c.Proto, c.Checksum, sum)
			}
			if c.Ops != int64(4*120) {
				t.Errorf("%v: %d ops, want 480", c.Proto, c.Ops)
			}
		}
		if c.P50 <= 0 || c.P99 < c.P50 {
			// A Get on a cached read grant and a valid page costs no
			// virtual time, so a read-mostly base cell's median may be
			// zero, but only if it served shared acquires locally.
			zeroByCache := c.Variant == "" && c.P50 == 0 && c.Report.Stats.SharedLocal > 0
			if !zeroByCache || c.P99 <= 0 || c.P99 < c.P50 {
				t.Errorf("%v/%s: implausible latency p50=%v p99=%v", c.Proto, c.Variant, c.P50, c.P99)
			}
		}
		if c.OpsPerSec() <= 0 {
			t.Errorf("%v/%s: ops/s = %v", c.Proto, c.Variant, c.OpsPerSec())
		}
	}
	if last := cells[len(cells)-1]; last.Variant != "write-heavy" || last.Proto != adsm.MW {
		t.Errorf("write-heavy arm missing: last cell %v/%q", last.Proto, last.Variant)
	}
	// The renderer reuses the cache (no reruns) and shows the write-heavy arm.
	out := m.ServeSweep(false, tinyServe())
	if !strings.Contains(out, "write-heavy") {
		t.Errorf("renderer missing the write-heavy arm:\n%s", out)
	}
}

// TestServeSweepTCP: the tcp cells run the same schedules over the real
// mesh and land on the same model checksum (asserted inside serveRun).
func TestServeSweepTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp sweep in -short mode")
	}
	m := NewMatrix(true)
	m.Procs = 2
	m.Protos = []adsm.Protocol{adsm.MW, adsm.Adaptive}
	o := tinyServe()
	o.Workload.OpsPerWorker = 60
	cells := m.ServeSweepData(true, o)
	var tcp int
	var sum uint64
	for _, c := range cells {
		if c.Transport != adsm.TCPTransport {
			sum = c.Checksum
			continue
		}
		tcp++
		if c.Variant == "" && c.Checksum != sum {
			t.Errorf("%v: tcp checksum %#x != sim %#x", c.Proto, c.Checksum, sum)
		}
		if c.Report.Stats.WireBytes == 0 {
			t.Errorf("%v: tcp cell moved no wire bytes", c.Proto)
		}
	}
	if tcp != 3 { // two base protocols + the write-heavy rerun
		t.Errorf("got %d tcp cells, want 3", tcp)
	}
}

// TestServeCacheStable: repeating the sweep reuses the cached cells
// bit-for-bit (the property that makes the archived JSON deterministic).
func TestServeCacheStable(t *testing.T) {
	m := NewMatrix(true)
	m.Procs = 4
	a := m.ServeSweepData(false, tinyServe())
	b := m.ServeSweepData(false, tinyServe())
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Checksum != b[i].Checksum || a[i].Elapsed != b[i].Elapsed ||
			a[i].P99 != b[i].P99 || a[i].Report != b[i].Report {
			t.Errorf("cell %d not served from cache", i)
		}
	}
}
