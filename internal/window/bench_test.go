package window_test

// BenchmarkWindowedDetection measures the online path. Golden and
// Corpus replay a recorded Flush+Reload event log through a fresh
// windowed detector under the default geometry — per-window trace
// rebuild, incremental CST-BBS modeling, repository scan — and report
// the latency-to-detection metric (cycles between the first event
// entering a window and the first malicious verdict) alongside ns/op.
// Two repositories bracket the deployment range:
//
//   - Golden: the paper's 4-entry PoC repository with the exact flat
//     scan — the floor for per-window scan cost.
//   - Corpus: the 500-variant mutation stress corpus behind the
//     medoid-prototype index — the scale the sharded service runs at.
//
// Watch is the whole online call, simulation included: window.Watch of
// the same PoC, events streamed from the simulator into the detector,
// against the default 11-PoC repository with exact scans.
//
// scripts/window-smoke.sh runs Golden under `make ci` at a short
// benchtime; the corpus build (500 modeled variants) happens once,
// outside the timed loop.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/scan"
	"repro/internal/window"
)

var windowBench struct {
	once  sync.Once
	err   error
	trace *exec.Trace
	llc   cache.Config
	poc   attacks.PoC

	// The corpus is built on first use, so the other sub-benchmarks do
	// not carry its 500 models in the heap they collect.
	corpusOnce sync.Once
	corpusErr  error
	corpus     *detect.Repository
}

func windowBenchSetup(b *testing.B) {
	windowBench.once.Do(func() {
		p := attacks.DefaultParams()
		windowBench.poc = attacks.FlushReloadIAIK(p)
		cfg := exec.DefaultConfig()
		cfg.RecordEvents = true
		m, err := exec.NewMachine(cfg, windowBench.poc.Program, windowBench.poc.Victim)
		if err != nil {
			windowBench.err = err
			return
		}
		windowBench.trace = m.Run()
		windowBench.llc = m.Hierarchy().LLC().Config()
	})
	if windowBench.err != nil {
		b.Fatal(windowBench.err)
	}
}

func BenchmarkWindowedDetection(b *testing.B) {
	windowBenchSetup(b)
	run := func(det *detect.Detector) func(*testing.B) {
		return func(b *testing.B) {
			// Warm the engine (and, for Corpus, build the index) outside
			// the timed loop: deployments hold a long-lived detector.
			ctx := context.Background()
			out, err := window.Replay(ctx, det, windowBench.poc.Program, windowBench.llc, windowBench.trace, window.Config{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			lat, ok := out.LatencyToDetection()
			if !ok {
				b.Fatal("benchmark trace not detected")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := window.Replay(ctx, det, windowBench.poc.Program, windowBench.llc, windowBench.trace, window.Config{}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(lat), "cycles-to-detect")
		}
	}
	b.Run("Golden", func(b *testing.B) {
		run(detect.NewDetector(repo(b)))(b)
	})
	b.Run("Watch", func(b *testing.B) {
		det := detect.NewDetector(defaultRepo(b))
		ctx := context.Background()
		watch := func() {
			if _, err := window.Watch(ctx, det, windowBench.poc.Program, windowBench.poc.Victim, exec.DefaultConfig(), window.Config{}, nil); err != nil {
				b.Fatal(err)
			}
		}
		watch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			watch()
		}
	})
	b.Run("Corpus", func(b *testing.B) {
		windowBench.corpusOnce.Do(func() {
			windowBench.corpus, windowBench.corpusErr = detect.BuildVariantRepository(detect.CorpusConfig{PerFamily: 125, Seed: 1})
		})
		if windowBench.corpusErr != nil {
			b.Fatal(windowBench.corpusErr)
		}
		det := detect.NewDetector(windowBench.corpus)
		det.Scan = scan.Config{Prune: true, Index: true}
		run(det)(b)
	})
}
