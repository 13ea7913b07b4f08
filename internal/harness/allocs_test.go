package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"adsm"
)

// TestSimAllocPins pins the simulator's host allocations: every cell of
// the quick matrix (every app under every protocol, 4 processors) must
// allocate the objects and bytes recorded in testdata/allocs.golden, to
// within allocPinSlack. A cell is the least of allocPinRuns uncached
// NewCluster, Setup and Run sequences, which repeats to well within the
// slack, so the table resolves a 1 % change. A change that moves the
// simulator's allocations on purpose regenerates the table, and says
// which rows moved, with:
// go test ./internal/harness -run TestSimAllocPins -update
func TestSimAllocPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick matrix")
	}
	if checkedBuild {
		t.Skip("a checked build allocates for its checks")
	}
	m := quickMatrix()
	var b strings.Builder
	b.WriteString("# app protocol mallocs bytes\n")
	for _, name := range AppNames() {
		for _, proto := range adsm.Protocols() {
			objs, bytes := cellAllocs(m, name, proto)
			fmt.Fprintf(&b, "%s %v %d %d\n", name, proto, objs, bytes)
		}
	}
	path := filepath.Join("testdata", "allocs.golden")
	if *updateSharing {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	got := allocRows(b.String())
	rows := allocRows(string(want))
	for cell, w := range rows {
		g, ok := got[cell]
		if !ok {
			t.Errorf("%s: pinned, not run", cell)
			continue
		}
		for i, what := range []string{"mallocs", "bytes"} {
			if d := float64(g[i]-w[i]) / float64(w[i]); d > allocPinSlack || d < -allocPinSlack {
				t.Errorf("%s: %s %d, pinned %d (%+.2f %%)", cell, what, g[i], w[i], 100*d)
			}
		}
	}
	for cell := range got {
		if _, ok := rows[cell]; !ok {
			t.Errorf("%s: run, not pinned", cell)
		}
	}
}

// checkedBuild is set in builds with -tags adsmcheck.
var checkedBuild bool

// allocPinSlack is the relative change a cell's counts may show before
// the pin fails.
const allocPinSlack = 0.01

// cellAllocs runs one cell of the matrix allocPinRuns times and returns
// the least it allocated: objects and bytes, from the runtime's cumulative
// counters. A run's counts differ from another's by a page frame or a
// map bucket at most (which map grows when depends on its hash seed); the
// least of three is what the code itself asks for.
func cellAllocs(m *Matrix, name string, proto adsm.Protocol) (objs, bytes uint64) {
	objs, bytes = math.MaxUint64, math.MaxUint64
	for range allocPinRuns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.run(name, m.Procs, proto, nil)
		runtime.ReadMemStats(&after)
		objs = min(objs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objs, bytes
}

const allocPinRuns = 3

// allocRows parses an allocs.golden table: "app protocol mallocs bytes".
func allocRows(s string) map[string][2]int64 {
	rows := make(map[string][2]int64)
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		objs, _ := strconv.ParseInt(f[2], 10, 64)
		bytes, _ := strconv.ParseInt(f[3], 10, 64)
		rows[f[0]+"/"+f[1]] = [2]int64{objs, bytes}
	}
	return rows
}
