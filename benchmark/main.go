// Command benchmark is the repository's wall-clock benchmark: five
// workloads, the end-to-end metrics a user of the DSM would see, and a
// ladder of per-layer probes, all measured from outside the program under
// test. See README.md for the metrics and how they interact.
//
//	bash benchmark/run.sh                          every workload, end-to-end metrics
//	bash benchmark/run.sh -trace 1                 plus the ladder and the traced passes: per-layer metrics and out/trace.*.json
//	bash benchmark/run.sh -repeat                  two full sets, compared against the bounds in BENCHMARK.json
//	bash benchmark/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                               one workload in this process; the last line of standard
//	                                               output is the result as one JSON object
//
// Without -workload the command runs each workload in a child process of
// its own, so that peak memory, garbage-collector state and the codec
// registry are per workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds, the length every archived
// run measures for.
const runSeconds = 15

// childDeadline bounds one workload process: a run that hangs is killed
// and counted as failed, it never hangs the benchmark.
const childDeadline = 170 * time.Second

// tracePath is where a traced process leaves its spans as Chrome-trace
// JSON, relative to the root of the checkout: one file per workload, and
// one for the ladder when it runs on its own, so that a run of all
// workloads keeps every process's spans.
func tracePath(name string) string { return "benchmark/out/trace." + name + ".json" }

// result is what one workload process reports, and the JSON object it
// prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload, in this process ("+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: kv schedules and the order of applications in a round")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the layer ladder and a traced pass at quarter length and reports per-layer metrics")
	ladder := fs.Bool("ladder", true, "with -workload and -trace 1, run the ladder in this process and report every per-layer name, as a driver "+
		"wants; false reports only what the workload itself measures (the run of all workloads runs the ladder once, itself)")
	repeat := fs.Bool("repeat", false, "run two full sets and fail if an end-to-end metric differs between them by more than its bound")
	out := fs.String("out", "", "also write every result to this file as JSON")
	// ExitOnError: a bad flag ends the process inside Parse.
	_ = fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: want -seconds > 0, -trace 0 or 1, and no other arguments")
		os.Exit(2)
	}
	sz := size{seed: *seed, seconds: *seconds}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		os.Exit(runChild(w, sz, *trace == 1, *ladder, os.Stdout))
	}

	var err error
	if *repeat {
		err = runRepeat(sz, *out)
	} else {
		err = runAll(sz, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runChild runs one workload in this process and returns the process's
// exit code. A run that is still going at the deadline ends the process;
// it never hangs the benchmark.
func runChild(w workload, sz size, traced, ladder bool, stdout io.Writer) int {
	defer deadline(w.name).Stop()
	res, err := runWorkload(w, sz, traced, ladder)
	return exitCode(res, err, stdout)
}

// deadline starts the timer that ends the process when what is still
// running after childDeadline. Stop it when what has finished.
func deadline(what string) *time.Timer {
	return time.AfterFunc(childDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v, giving up\n", what, childDeadline)
		os.Exit(3)
	})
}

// exitCode prints the result as the last line of stdout and returns 0 only
// when the workload was measured and every oracle held.
func exitCode(res result, err error, stdout io.Writer) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// ladderCalls is the number of timed calls behind each ladder median.
const ladderCalls = 1000

// runWorkload measures one workload. Untraced, it is one pass and the
// end-to-end metrics. Traced, it is the layer ladder if ladder is set,
// then the traced pass, then the spans written to the workload's trace
// file. An error means the benchmark itself could not measure; a failed
// oracle is a result with Correct false and no metrics.
func runWorkload(w workload, sz size, traced, ladder bool) (result, error) {
	if !traced {
		return report(endToEnd, measured(w, sz, nil)), nil
	}
	tr := newTracer()
	var rungs metrics
	if ladder {
		var err error
		if rungs, err = runLadder(ladderCalls, tr); err != nil {
			return result{}, err
		}
	}
	res := tracedPass(w, sz, rungs, ladder, tr)
	if err := writeTrace(tr, w.name); err != nil {
		return result{}, err
	}
	return res, nil
}

func writeTrace(tr *tracer, name string) error {
	path := tracePath(name)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	spans, dropped := tr.counts()
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans written to %s (%d dropped)\n", name, spans, path, dropped)
	return nil
}

// tracedPass runs the workload at quarter length twice, without and with
// spans, and reports the per-layer metrics: the ladder's rungs plus what
// the second pass observed. With pad set it reports every workload-scoped
// name, 0 for one the workload does not measure.
func tracedPass(w workload, sz size, rungs metrics, pad bool, tr *tracer) result {
	sz.seconds /= 4
	plain := measured(w, sz, nil)
	if plain.failed > 0 || len(plain.rounds) == 0 {
		return report(nil, plain)
	}
	res := report(func(p *pass) metrics {
		m := perLayer(p, plain, pad)
		for name, v := range rungs {
			m.set(name, v.Value, v.Unit)
		}
		return m
	}, measured(w, sz, tr))
	res.Attempted += plain.attempted
	return res
}

// report turns a pass into a result: its oracle verdict and, if every
// oracle held, the metrics compute derives from it.
func report(compute func(*pass) metrics, p *pass) result {
	for _, e := range p.errs {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED %s\n", e)
	}
	res := result{Attempted: max(p.attempted, 1), Failed: p.failed, Metrics: metrics{}}
	if p.failed > 0 || len(p.rounds) == 0 {
		res.Failed = max(p.failed, 1)
		return res
	}
	res.Correct = true
	res.Metrics = compute(p)
	return res
}

// run is one workload process's outcome as the parent sees it.
type run struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
	Err      string `json:"error,omitempty"` // the process failed without a result
}

// spawn runs one workload in a child process with a deadline and parses
// the JSON object on the last line of its output. A traced child leaves
// the ladder to its parent.
func spawn(name string, sz size, trace int) run {
	r := run{Workload: name, Trace: trace, Seed: sz.seed}
	self, err := os.Executable()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", fmt.Sprint(sz.seed),
		"-seconds", fmt.Sprint(sz.seconds), "-trace", fmt.Sprint(trace), "-ladder=false")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result); jerr != nil {
		r.Err = fmt.Sprintf("no result (%v)", errors.Join(err, jerr))
	}
	return r
}

// ok reports whether the run produced a result whose oracles all held.
func (r run) ok() bool { return r.Err == "" && r.Result.Correct }

// print lists every metric of the run by name, with its unit.
func (r run) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s (seed %d, %s)\n", r.Workload, r.Seed, map[int]string{0: "end to end", 1: "traced pass, per layer"}[r.Trace])
	if r.Err != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", r.Err)
		return
	}
	res := r.Result
	fmt.Fprintf(w, "  %-32s %14.6g %s\n", "error_rate", float64(res.Failed)/float64(res.Attempted),
		fmt.Sprintf("ratio (%d failed of %d attempted)", res.Failed, res.Attempted))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// ladderRun runs the ladder once, in this process, which measures nothing
// else, and presents its rungs as a run of their own.
func ladderRun(sz size) run {
	defer deadline("ladder").Stop()
	r := run{Workload: "ladder", Trace: 1, Seed: sz.seed}
	tr := newTracer()
	rungs, err := runLadder(ladderCalls, tr)
	if err == nil {
		err = writeTrace(tr, r.Workload)
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Result = result{Correct: true, Attempted: len(rungs), Metrics: rungs}
	return r
}

// runAll runs every workload once, and with traced set the ladder and
// every workload a second time for the per-layer metrics.
func runAll(sz size, traced bool, out string) error {
	var runs []run
	failed := 0
	record := func(r run) {
		r.print(os.Stdout)
		if !r.ok() {
			failed++
		}
		runs = append(runs, r)
	}
	if traced {
		record(ladderRun(sz))
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1 && (trace == 0 || traced); trace++ {
			record(spawn(w.name, sz, trace))
		}
	}
	if err := writeRuns(out, runs); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, len(runs))
	}
	return nil
}

func writeRuns(path string, runs any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// spec is the part of BENCHMARK.json the repeat check needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runRepeat is the benchmark checking itself: two full sets of runs of
// the same code, the second in reverse workload order, compared metric by
// metric. A metric whose two readings differ by more than its own bound
// cannot show a regression of that size, so it is reported as unresolved
// and the check fails. A metric that only restates another on a workload
// is left out there. paper_sim's virtual-time results come from a
// traced run in each set and must be identical to the last bit.
func runRepeat(sz size, out string) error {
	s, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sets [2]map[string]run
	var all []run
	bad := 0
	for i := range sets {
		sets[i] = map[string]run{}
		order := slices.Clone(workloads)
		if i == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			r := spawn(w.name, sz, 0)
			r.print(os.Stdout)
			sets[i][w.name] = r
			all = append(all, r)
		}
		r := spawn("paper_sim", sz, 1)
		sets[i]["paper_sim traced"] = r
		all = append(all, r)
	}
	if err := writeRuns(out, all); err != nil {
		return err
	}

	fmt.Printf("\n%-12s %-14s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if !a.ok() || !b.ok() {
			fmt.Printf("%-12s FAILED\n", w.name)
			bad++
			continue
		}
		for _, e := range s.EndToEnd {
			if derived(w.name, e.Name) {
				continue
			}
			x, y := a.Result.Metrics[e.Name].Value, b.Result.Metrics[e.Name].Value
			spread := (max(x, y) - min(x, y)) / ((x + y) / 2)
			verdict := ""
			if spread > e.Bound {
				verdict = "  UNRESOLVED: spread exceeds the bound"
				bad++
			}
			fmt.Printf("%-12s %-14s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, e.Name, x, y, 100*spread, 100*e.Bound, verdict)
		}
	}
	a, b := sets[0]["paper_sim traced"], sets[1]["paper_sim traced"]
	if !a.ok() || !b.ok() {
		fmt.Println("paper_sim traced FAILED")
		bad++
	} else {
		for name, m := range a.Result.Metrics {
			if !strings.HasPrefix(name, "sim.virtual_speedup.") && name != "sim.adaptive_vs_best" {
				continue
			}
			if other := b.Result.Metrics[name].Value; other != m.Value {
				fmt.Printf("paper_sim    %s: %v then %v: virtual time must repeat exactly\n", name, m.Value, other)
				bad++
			}
		}
		fmt.Printf("paper_sim    sim.adaptive_vs_best %v in both sets\n", a.Result.Metrics["sim.adaptive_vs_best"].Value)
	}
	if bad > 0 {
		return fmt.Errorf("repeat check: %d metrics failed or unresolved", bad)
	}
	return nil
}
