package apps

import (
	"math"
	"testing"

	"adsm"
)

// runQuick executes one app on a fresh cluster and returns (result, report).
func runQuick(t *testing.T, f Factory, procs int, proto adsm.Protocol) (float64, *adsm.Report) {
	t.Helper()
	app, rep, err := Run(f, adsm.Config{Procs: procs, Protocol: proto}, true)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return app.Result(), rep
}

// TestAllAppsMatchSequential verifies every application's checksum under
// every protocol against the sequential (1-processor) execution. This is
// the master coherence test: any protocol bug that loses or corrupts a
// write shows up as a checksum mismatch.
func TestAllAppsMatchSequential(t *testing.T) {
	for _, entry := range Registry {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			seq, _ := runQuick(t, entry.New, 1, adsm.MW)
			if seq == 0 {
				t.Fatalf("sequential checksum is zero — app not computing anything?")
			}
			for _, proto := range adsm.Protocols() {
				got, rep := runQuick(t, entry.New, 4, proto)
				tol := math.Abs(seq) * 1e-9
				if entry.Name == "Water" {
					// Lock-ordered force accumulation order varies per
					// protocol; float addition is not associative.
					tol = math.Abs(seq) * 1e-6
				}
				if math.Abs(got-seq) > tol {
					t.Errorf("%s under %v: result %v != sequential %v", entry.Name, proto, got, seq)
				}
				if rep.Elapsed <= 0 {
					t.Errorf("%s under %v: no elapsed time", entry.Name, proto)
				}
			}
		})
	}
}

// TestAppMetadata checks the Table 1 bookkeeping.
func TestAppMetadata(t *testing.T) {
	for _, entry := range Registry {
		app := entry.New(true)
		if app.Name() != entry.Name {
			t.Errorf("name mismatch: %q vs %q", app.Name(), entry.Name)
		}
		if app.Sync() == "" || app.DataSet() == "" {
			t.Errorf("%s: missing metadata", entry.Name)
		}
	}
	if _, err := New("SOR", true); err != nil {
		t.Errorf("lookup failed: %v", err)
	}
	if _, err := New("nope", true); err == nil {
		t.Errorf("expected error for unknown app")
	}
}

// TestParallelFasterThanSequential: with the calibrated compute costs,
// 8 processors must beat 1 processor for the compute-heavy apps at full
// scale (quick inputs are deliberately communication-dominated).
func TestParallelFasterThanSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale inputs")
	}
	for _, name := range []string{"SOR", "Water", "ILINK"} {
		entry := mustEntry(name)
		seqApp, seqRep, err := Run(entry.New, adsm.Config{Procs: 1, Protocol: adsm.WFS}, false)
		if err != nil {
			t.Fatal(err)
		}
		parApp, parRep, err := Run(entry.New, adsm.Config{Procs: 8, Protocol: adsm.WFS}, false)
		if err != nil {
			t.Fatal(err)
		}
		// Water's force reduction order depends on lock arrival order, so
		// float addition is reassociated; allow a loose tolerance there.
		tol := math.Abs(seqApp.Result()) * 1e-6
		if name == "Water" {
			tol = math.Abs(seqApp.Result()) * 1e-4
		}
		if math.Abs(parApp.Result()-seqApp.Result()) > tol {
			t.Errorf("%s: full-scale results differ: %v vs %v", name, parApp.Result(), seqApp.Result())
		}
		if parRep.Elapsed >= seqRep.Elapsed {
			t.Errorf("%s: 8 procs (%v) not faster than 1 proc (%v)", name, parRep.Elapsed, seqRep.Elapsed)
		}
	}
}

func mustEntry(name string) struct {
	Name string
	New  Factory
} {
	for _, e := range Registry {
		if e.Name == name {
			return e
		}
	}
	panic("no entry " + name)
}

// TestSharingCharacteristics spot-checks the Table 2 shape: SOR and IS
// have no write-write false sharing; Barnes and ILINK have lots.
func TestSharingCharacteristics(t *testing.T) {
	fs := func(name string) float64 {
		_, rep := runQuick(t, mustEntry(name).New, 4, adsm.MW)
		return rep.Sharing.FSPercent
	}
	if v := fs("SOR"); v != 0 {
		t.Errorf("SOR false sharing = %.1f%%, want 0", v)
	}
	if v := fs("IS"); v != 0 {
		t.Errorf("IS false sharing = %.1f%%, want 0", v)
	}
	if v := fs("Barnes"); v < 30 {
		t.Errorf("Barnes false sharing = %.1f%%, want high", v)
	}
	if v := fs("ILINK"); v < 30 {
		t.Errorf("ILINK false sharing = %.1f%%, want high", v)
	}
}

// TestISMigratoryFavoursSW: whole-page migratory buckets should favour
// SW/WFS over MW at full scale (the Figure 2 ordering for IS).
func TestISMigratoryFavoursSW(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale inputs")
	}
	_, mw, err := Run(mustEntry("IS").New, adsm.Config{Procs: 8, Protocol: adsm.MW}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, wfs, err := Run(mustEntry("IS").New, adsm.Config{Procs: 8, Protocol: adsm.WFS}, false)
	if err != nil {
		t.Fatal(err)
	}
	if wfs.Elapsed > mw.Elapsed {
		t.Errorf("IS: WFS (%v) should not be slower than MW (%v)", wfs.Elapsed, mw.Elapsed)
	}
	if wfs.Stats.TwinsCreated > mw.Stats.TwinsCreated {
		t.Errorf("IS: WFS created more twins (%d) than MW (%d)", wfs.Stats.TwinsCreated, mw.Stats.TwinsCreated)
	}
}

// TestBarnesFSFavoursMW: heavy false sharing should make SW much slower
// than MW (the Figure 2 ordering for Barnes).
func TestBarnesFSFavoursMW(t *testing.T) {
	_, mw := runQuick(t, mustEntry("Barnes").New, 4, adsm.MW)
	_, sw := runQuick(t, mustEntry("Barnes").New, 4, adsm.SW)
	if sw.Elapsed < mw.Elapsed {
		t.Errorf("Barnes: SW (%v) should be slower than MW (%v)", sw.Elapsed, mw.Elapsed)
	}
}

// TestAdaptiveTCPMatchesSequential runs the adaptive protocol on the
// in-process tcp mesh, full inputs. Water and ILINK are the two kernels
// whose many-writer pages the wire cost profile moves to HLRC and that
// lost writes when an HLRC flush could reach a home before the home had
// drained the switch. IS's bucket pages are written by every node in turn
// under one lock: the wire profile's serialized-writer rule hands them to
// WFS, and none may reach HLRC. The checksums must match the sequential
// run (Water within the lock-order reassociation tolerance) and the
// switches must really fire.
func TestAdaptiveTCPMatchesSequential(t *testing.T) {
	for _, name := range []string{"Water", "ILINK", "IS"} {
		t.Run(name, func(t *testing.T) {
			e := mustEntry(name)
			seqApp, _, err := Run(e.New, adsm.Config{Procs: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			app, rep, err := Run(e.New, adsm.Config{Procs: 4, Protocol: adsm.Adaptive,
				Transport: adsm.TCPTransport}, false)
			if err != nil {
				t.Fatal(err)
			}
			seq, got := seqApp.Result(), app.Result()
			tol := math.Abs(seq) * 1e-8
			if name == "Water" {
				tol = math.Abs(seq) * 1e-4
			}
			if math.Abs(got-seq) > tol {
				t.Errorf("result %v != sequential %v", got, seq)
			}
			s := rep.Stats
			if name == "IS" {
				if s.SwitchToSW == 0 || s.SwitchToHLRC != 0 {
					t.Errorf("IS switches: toSW=%d toHLRC=%d, want toSW > 0 and no HLRC (toMW=%d)",
						s.SwitchToSW, s.SwitchToHLRC, s.SwitchToMW)
				}
			} else if s.SwitchToHLRC == 0 {
				t.Errorf("no page moved to HLRC (switches: toSW=%d toMW=%d)",
					s.SwitchToSW, s.SwitchToMW)
			}
		})
	}
}
