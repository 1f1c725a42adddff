package main

import (
	"math"
	"testing"

	"repro/internal/detect"
)

// smokeSizes shrink every input so all four workloads, traced, run in a
// few seconds; the harness, the oracle checks and the metric plumbing
// are the same as in a full run.
var smokeSizes = sizes{
	corpus:            detect.CorpusConfig{PerFamily: 25, Seed: 1},
	triagePerClass:    10,
	rescanPerClass:    4,
	rescanCorpusEvery: 10,
	watchPerClass:     2,
	setupRepeats:      1,
	traceTargets:      20,
}

// TestSmoke runs every workload for about a second with tracing on and
// checks that all verdicts match the oracle and that every metric
// BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	bench, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	checkSpecs(t, "end_to_end", bench.endToEndSpecs(), endToEnd)
	checkSpecs(t, "per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, wl := range bench.Workloads {
		if i >= len(workloads) || workloads[i].name != wl.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is not", i, wl.Name)
			continue
		}
		t.Run(wl.Name, func(t *testing.T) {
			rep, err := runOne(options{workload: wl.Name, seed: 1, seconds: 1, trace: true, sizes: smokeSizes})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			checkEmitted(t, rep.Metrics, bench.endToEndSpecs())
			checkEmitted(t, rep.PerLayer, bench.PerLayer)
			for _, m := range bench.endToEndSpecs() {
				if v := rep.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
			if u := rep.PerLayer["trace.unattributed_frac"].Value; u > 0.10 {
				t.Errorf("trace.unattributed_frac = %v: the layer spans miss over a tenth of the operation", u)
			}
		})
	}
}

func checkSpecs(t *testing.T, section string, file, code []metricSpec) {
	t.Helper()
	if len(file) != len(code) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", section, len(file), len(code))
	}
	for i := 0; i < len(file) && i < len(code); i++ {
		if file[i] != code[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", section, i, file[i], code[i])
		}
	}
}

func checkEmitted(t *testing.T, got map[string]value, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudgement(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{100, 101, 100, 99, 101}, "same"},
		{[]float64{120, 121, 119, 120, 122}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "better"},
		{[]float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		if got, _ := judgement(base, c.change, 0.1, false); got != c.want {
			t.Errorf("judgement(%v) = %s, want %s", c.change, got, c.want)
		}
	}
}
