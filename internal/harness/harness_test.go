package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"adsm"
)

func quickMatrix() *Matrix {
	m := NewMatrix(true)
	m.Procs = 4
	return m
}

func TestTablesRender(t *testing.T) {
	m := quickMatrix()
	t1 := m.Table1()
	for _, want := range []string{"Table 1", "SOR", "ILINK", "Sync"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}
	t2 := m.Table2()
	if !strings.Contains(t2, "falsely shared") || !strings.Contains(t2, "Barnes") {
		t.Errorf("Table2 malformed:\n%s", t2)
	}
	f2 := m.Figure2()
	if !strings.Contains(f2, "WFS+WG") || !strings.Contains(f2, "speedup") {
		t.Errorf("Figure2 malformed:\n%s", f2)
	}
	t3 := m.Table3()
	if !strings.Contains(t3, "Twin+diff") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}
	t4 := m.Table4()
	if !strings.Contains(t4, "Owner") || !strings.Contains(t4, "Data (MB)") {
		t.Errorf("Table4 malformed:\n%s", t4)
	}
}

func TestSpeedupsPositive(t *testing.T) {
	m := quickMatrix()
	for _, name := range AppNames() {
		for _, proto := range adsm.Protocols() {
			if s := m.Speedup(name, proto); s <= 0 {
				t.Errorf("%s under %v: speedup %v", name, proto, s)
			}
		}
	}
}

func TestRunCaching(t *testing.T) {
	m := quickMatrix()
	a := m.Parallel("SOR", adsm.MW)
	b := m.Parallel("SOR", adsm.MW)
	if a != b {
		t.Errorf("parallel runs not cached")
	}
	if m.Sequential("SOR") != m.Sequential("SOR") {
		t.Errorf("sequential runs not cached")
	}
}

func TestFigure3HasTimeline(t *testing.T) {
	m := quickMatrix()
	rep := m.Figure3Data(adsm.MW)
	if len(rep.DiffTimeline) == 0 {
		t.Fatalf("MW 3D-FFT produced no diff timeline")
	}
	out := m.Figure3()
	if !strings.Contains(out, "Peak live diffs") {
		t.Errorf("Figure3 summary malformed:\n%s", out)
	}
	csv := m.Figure3CSV()
	if !strings.Contains(csv, "time_us,live_diffs") {
		t.Errorf("Figure3 CSV malformed")
	}
}

func TestAblationsRun(t *testing.T) {
	m := quickMatrix()
	if rs := m.AblationQuantum(); len(rs) != 3 {
		t.Errorf("quantum sweep returned %d results", len(rs))
	}
	if rs := m.AblationWGThreshold(); len(rs) != 3 {
		t.Errorf("threshold sweep returned %d results", len(rs))
	}
	if rs := m.AblationGCLimit(); len(rs) != 3 {
		t.Errorf("gc sweep returned %d results", len(rs))
	}
	out := m.Ablations()
	if !strings.Contains(out, "quantum") || !strings.Contains(out, "wg-threshold") {
		t.Errorf("ablation table malformed:\n%s", out)
	}
}

func TestProtocolFilter(t *testing.T) {
	m := quickMatrix()
	m.Protos = []adsm.Protocol{adsm.MW}
	f2 := m.Figure2()
	if strings.Contains(f2, "HLRC") || strings.Contains(f2, "WFS") {
		t.Errorf("filtered Figure2 still shows other protocols:\n%s", f2)
	}
	if !strings.Contains(f2, "MW") {
		t.Errorf("filtered Figure2 lost MW:\n%s", f2)
	}
}

func TestFigure2IncludesRegisteredProtocols(t *testing.T) {
	m := quickMatrix()
	f2 := m.Figure2()
	for _, p := range adsm.Protocols() {
		if !strings.Contains(f2, p.String()) {
			t.Errorf("Figure2 missing column for %v:\n%s", p, f2)
		}
	}
}

func TestBenchReportJSON(t *testing.T) {
	m := quickMatrix()
	m.Protos = []adsm.Protocol{adsm.MW, adsm.HLRC} // keep the test fast
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if r.Procs != m.Procs || !r.Quick {
		t.Errorf("report header wrong: %+v", r)
	}
	wantCells := len(AppNames()) * 2
	if len(r.Cells) != wantCells {
		t.Errorf("got %d cells, want %d", len(r.Cells), wantCells)
	}
	for _, c := range r.Cells {
		if c.VirtualUS <= 0 {
			t.Errorf("%s/%s: non-positive virtual time", c.App, c.Protocol)
		}
		if c.Speedup <= 0 {
			t.Errorf("%s/%s: non-positive speedup", c.App, c.Protocol)
		}
		if c.Protocol == "HLRC" && c.GCRuns != 0 {
			t.Errorf("%s under HLRC ran GC %d times", c.App, c.GCRuns)
		}
	}
}

func TestGranularityClasses(t *testing.T) {
	cases := []struct {
		avg  float64
		max  int
		want string
	}{
		{0, 0, "n/a"},
		{4000, 4096, "large"},
		{2000, 2100, "med-large"},
		{1500, 30000, "variable"},
		{500, 600, "medium"},
		{100, 120, "small"},
	}
	for _, c := range cases {
		if got := granularityClass(c.avg, c.max); got != c.want {
			t.Errorf("granularityClass(%v, %v) = %q, want %q", c.avg, c.max, got, c.want)
		}
	}
}

func TestToleranceAndCloseEnough(t *testing.T) {
	if tolerance("Water") <= tolerance("SOR") {
		t.Errorf("Water needs a looser tolerance")
	}
	if !closeEnough(1.0, 1.0, 1e-9) {
		t.Errorf("equal values must be close")
	}
	if closeEnough(1.0, 2.0, 1e-9) {
		t.Errorf("different values must not be close")
	}
	if !closeEnough(0, 0, 1e-9) {
		t.Errorf("zeros must be close")
	}
}
