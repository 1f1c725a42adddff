// Command benchmark is the detection benchmark: it drives the SCAGuard
// reproduction end to end on four named workloads, checks every verdict
// against the serial exact-scan oracle, and prints every metric by name
// and unit. See README.md for the workloads, the metrics and how to
// compare two sets of runs.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload triage --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out runs.jsonl
//	bash benchmark/run.sh --compare base.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run (--trace 0), or the per-layer metrics of a traced run
// (--trace 1). A run whose verdicts do not all match the oracle exits 1;
// a run that cannot set up exits 2 without printing a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// workloads in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(options) (*report, error)
}{
	{"triage", func(o options) (*report, error) { return runClosed(o, triage) }},
	{"rescan", func(o options) (*report, error) { return runClosed(o, rescan) }},
	{"serve-repeat", runServe},
	{"watch", func(o options) (*report, error) { return runClosed(o, watch) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: triage, rescan, serve-repeat, watch, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workload's targets are generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	traceRun := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	spans := fs.String("spans", "", "traced runs: write the recorded spans to this JSON file")
	out := fs.String("out", "", "append the run's full report as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two report files (positional: base change) using the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two report files")
			return 2
		}
		worse, err := compareReports(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *traceRun != 0 && *traceRun != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if _, err := repoRoot(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *workload == "all" {
		return runAll(args, *spans, stdout, stderr)
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceRun == 1, spans: *spans, sizes: fullSizes}
	rep, err := runOne(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 2
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	writeSummary(stderr, rep)
	metrics := rep.Metrics
	if o.trace {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func runOne(o options) (*report, error) {
	for _, w := range workloads {
		if w.name == o.workload {
			return w.run(o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// runAll runs every workload in its own child process with the same
// flags, so each one's set-up time and peak RSS are its own. Each child
// writes its spans to its own file.
func runAll(args []string, spans string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		childArgs := append(append([]string(nil), args...), "-workload", w.name)
		if spans != "" {
			childArgs = append(childArgs, "-spans", spans+"."+w.name)
		}
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// repoRoot finds the repository root from the root itself or from the
// benchmark directory (where go test and go run start).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or its benchmark directory")
}

func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}

// writeSummary prints the run's metrics and problems for a reader.
func writeSummary(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%s seed %d: correct=%v attempted=%d failed=%d latency samples=%d\n",
		rep.Workload, rep.Seed, rep.Correct, rep.Attempted, rep.Failed, rep.Samples)
	for _, m := range []map[string]value{rep.Metrics, rep.PerLayer} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}
