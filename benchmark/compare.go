package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (b *benchmarkFile) endToEndSpecs() []metricSpec {
	out := make([]metricSpec, len(b.EndToEnd))
	for i, m := range b.EndToEnd {
		out[i] = m.metricSpec
	}
	return out
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// readReports reads a file of reports as appended by -out and returns
// the untraced runs' end-to-end values by workload and metric.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the default
// exclusive method) and statistics.median, so the spreads printed here
// are the ones the benchmark's acceptance check computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// judgement compares a change's runs b against a base's runs a for one
// metric whose regression bound is bound:
//   - worse: the change's median is worse by more than the bound;
//   - unresolved: either side's quartile spread exceeds the bound, so
//     the runs cannot tell (unless every change run beats every base
//     run, or loses to it by more than the bound);
//   - better: the median improved by more than the base's own spread
//     and the change won at least nine in ten index-aligned pairs;
//   - same: otherwise.
func judgement(a, b []float64, bound float64, higherBetter bool) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worseBy := func(x, y float64) float64 { // how much worse y is than x, as a share of x
		d := (y - x) / math.Abs(x)
		if higherBetter {
			d = -d
		}
		return d
	}
	rel := worseBy(am, bm)
	spreadA := (aq3 - aq1) / math.Abs(am)
	spreadB := (bq3 - bq1) / math.Abs(bm)
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if worseBy(x, y) >= 0 {
				allBetter = false
			}
			if worseBy(x, y) <= bound {
				allWorse = false
			}
		}
	}
	wins, pairs := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		pairs++
		if worseBy(a[i], b[i]) < 0 {
			wins++
		}
	}
	switch {
	case math.Max(spreadA, spreadB) > bound && !allBetter && !allWorse:
		return "unresolved", rel
	case rel > bound:
		return "worse", rel
	case allBetter || (-rel > spreadA && 10*wins >= 9*pairs):
		return "better", rel
	}
	return "same", rel
}

// compareReports prints every (workload, end-to-end metric) pair of two
// report files and reports whether any got worse.
func compareReports(basePath, changePath string, w io.Writer) (bool, error) {
	bench, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	a, err := readReports(basePath)
	if err != nil {
		return false, err
	}
	b, err := readReports(changePath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(bench.Workloads))
	for _, wl := range bench.Workloads {
		names = append(names, wl.Name)
	}
	var extra []string
	for wl := range b {
		if !slices.Contains(names, wl) {
			extra = append(extra, wl)
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)
	fmt.Fprintf(w, "%-12s %-18s %-10s %-34s %-34s %8s %6s\n", "workload", "metric", "verdict",
		"base median [q1, q3] (n)", "change median [q1, q3] (n)", "worse by", "bound")
	anyWorse := false
	for _, wl := range names {
		for _, m := range bench.EndToEnd {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict, rel := judgement(av, bv, m.Bound, m.Better == "higher")
			anyWorse = anyWorse || verdict == "worse"
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			fmt.Fprintf(w, "%-12s %-18s %-10s %-34s %-34s %+7.2f%% %5.0f%%\n", wl, m.Name, verdict,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", am, aq1, aq3, len(av)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", bm, bq1, bq3, len(bv)),
				100*rel, 100*m.Bound)
		}
	}
	return anyWorse, nil
}
