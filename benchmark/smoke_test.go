package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics asserts that got holds exactly the metrics want names, each
// once (a map cannot hold a name twice, and metrics.set panics on a second
// report), with the unit the contract states and a finite value.
func checkMetrics(t *testing.T, what string, got metrics, want []contractMetric, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but was not reported", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s is %v", what, w.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v, must be positive", what, w.Name, m.Value)
		}
	}
}

// TestContract pins BENCHMARK.json to the program: same workloads in the
// same order, the run length the program defaults to, and names and units
// inside the driver's limits.
func TestContract(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", c.RunSeconds, runSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's limits", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		unique(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range c.PerLayer {
		unique(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(c.PerLayer))
	}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the driver's limits", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs every workload and every ladder probe at a tiny size, on
// a seed the benchmark was not sized with, and asserts that the oracles
// hold and that every metric BENCHMARK.json names is reported exactly
// once, in the stated unit, with a finite value.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	sz := size{seed: 2, seconds: 0.25, quick: true} // 500 and 312 ops per worker, one round
	tr := newTracer()
	rungs, err := runLadder(40, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The workloads run side by side: this checks oracles and names, not
	// speed, and the group returns when all of them have.
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(w, sz, false, false)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
				}
				checkMetrics(t, "end to end", res.Metrics, c.EndToEnd, true)

				sz4 := sz
				sz4.seconds *= 4 // tracedPass runs at quarter length
				res = tracedPass(w, sz4, rungs, true, tr)
				if !res.Correct || res.Failed != 0 {
					t.Errorf("traced: correct=%v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
				}
				checkMetrics(t, "traced", res.Metrics, c.PerLayer, false)
			})
		}
	})

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          struct{ ID, Parent, Req int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	spans, dropped := tr.counts()
	if len(doc.TraceEvents) != spans || dropped != 0 {
		t.Errorf("trace.json holds %d events, the tracer %d spans (%d dropped)", len(doc.TraceEvents), spans, dropped)
	}
	// Every kv op span names a Cluster.Run span as its cause.
	byID := map[int]string{}
	for _, e := range doc.TraceEvents {
		byID[e.Args.ID] = e.Name
	}
	ops := 0
	for _, e := range doc.TraceEvents {
		if e.Cat == "kv" && e.Args.Req > 0 {
			ops++
			if byID[e.Args.Parent] != "Cluster.Run serve" {
				t.Fatalf("kv span %q has parent %q", e.Name, byID[e.Args.Parent])
			}
		}
	}
	if ops == 0 {
		t.Error("no kv op spans in the trace")
	}
}

// TestScoped: unpadded, a workload reports only the per-layer metrics it
// measures; padded, every other workload-scoped name reads 0.
func TestScoped(t *testing.T) {
	p := &pass{unitsPerRound: 1, rounds: []float64{1}, appRunMS: map[string][]float64{"SOR": {1}}, elapsedS: []float64{1}}
	own, padded := perLayer(p, p, false), perLayer(p, p, true)
	for name, m := range padded {
		if o, ok := own[name]; ok && o != m {
			t.Errorf("%s: %v unpadded, %v padded", name, o, m)
		} else if !ok && m.Value != 0 {
			t.Errorf("%s: padded with %v, want 0", name, m.Value)
		}
	}
	for name, want := range map[string]bool{"apps.run_ms.SOR": true, "apps.run_ms.IS": false, "kv.get_p50_us": false, "op_p50_us": false, "sim.adaptive_vs_best": false, "rep.msgs": true} {
		if _, ok := own[name]; ok != want {
			t.Errorf("%s reported unpadded: %v, want %v", name, ok, want)
		}
		if _, ok := padded[name]; !ok {
			t.Errorf("%s missing from the padded report", name)
		}
	}
}

// TestOracleFailure: a workload whose oracle fails yields a result with
// correct false, failed > 0 and no metrics, printed as the last line, and
// a non-zero exit code.
func TestOracleFailure(t *testing.T) {
	bad := workload{"bad", func(size, *tracer) *pass {
		p := &pass{attempted: 4, unitsPerRound: 4, rounds: []float64{1}, setup: []float64{1}}
		p.fail("checksum 1, sequential run gives 2")
		return p
	}}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		var code int
		if traced {
			code = exitCode(tracedPass(bad, size{seconds: 1}, metrics{}, true, nil), nil, &out)
		} else {
			code = runChild(bad, size{seconds: 1}, false, true, &out)
		}
		var res result
		if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
			t.Fatalf("traced=%v: %v in %q", traced, err, out.String())
		}
		if code == 0 || res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
			t.Errorf("traced=%v: exit code %d, result %+v", traced, code, res)
		}
	}
}
