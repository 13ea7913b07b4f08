package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adsm"
)

var updateSharing = flag.Bool("update", false, "rewrite the testdata golden tables (sharing.golden, allocs.golden) from the current run")

// TestSharingGolden pins Table 2's measurement: every cell of the quick
// matrix (every app under every protocol, 4 processors, simulator) must
// report the sharing characteristics in testdata/sharing.golden. The
// figures are summed from each node's own page facts; this file is what
// says the sum still measures what the paper's table reports. After an
// intended change, regenerate with:
// go test ./internal/harness -run TestSharingGolden -update
func TestSharingGolden(t *testing.T) {
	m := quickMatrix()
	var b strings.Builder
	b.WriteString("# app protocol shared written fs fs% avg-diff max-diff\n")
	for _, name := range AppNames() {
		for _, proto := range adsm.Protocols() {
			sh := m.Parallel(name, proto).Sharing
			fmt.Fprintf(&b, "%s %v %d %d %d %.6f %.6f %d\n", name, proto,
				sh.SharedPages, sh.WrittenPages, sh.FSPages, sh.FSPercent, sh.AvgDiffBytes, sh.MaxDiffBytes)
		}
	}
	path := filepath.Join("testdata", "sharing.golden")
	if *updateSharing {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
