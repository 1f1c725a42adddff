package main

import (
	"runtime"
	"time"

	"repro/internal/detect"
	"repro/internal/scan"
)

// Scan modes of the four workloads, set through the same detect.Detector
// fields the CLI's -fast, -cascade, -index and -result-cache flags set.
// This is the one place that names them: a change that collapses or
// renames a mode edits these lines and nothing else in the benchmark.
var (
	triageScan = scan.Config{}                           // exact, the paper's deployment
	rescanScan = scan.Config{Prune: true, Index: true}   // -fast -index
	serveScan  = scan.Config{Prune: true, Cascade: true} // -fast -cascade
	watchScan  = scan.Config{}                           // exact, per window
)

// serveResultCache is the serve-repeat detector's verdict-cache size
// (-result-cache 1024).
const serveResultCache = 1024

// sizes are a run's input sizes and repetitions.
type sizes struct {
	// corpus is the stress corpus rescan and serve-repeat scan. It is
	// fixed system state: it never depends on -seed.
	corpus detect.CorpusConfig
	// Target-set sizes; only the targets come from -seed.
	triagePerClass    int // dataset.Standard classes for triage
	rescanPerClass    int // held-out dataset.Standard models for rescan
	rescanCorpusEvery int // every n-th corpus entry is re-scored in place
	watchPerClass     int // dataset.Standard traces for watch
	// setupRepeats is how many times a run builds its system state;
	// setup_s is the median.
	setupRepeats int
	// traceTargets bounds how many distinct targets the traced run
	// decomposes (an even stride through the target list).
	traceTargets int
}

// fullSizes are the benchmark's. The default repository (the 11
// canonical PoCs of Table II) and the 500-variant corpus of the index
// benchmarks are fixed. The target sets are large enough that a seed
// picks instances of a fixed work mix rather than a different mix: over
// ten seeds the median retired-instruction count of a dataset.Standard
// target ranges 39% (max over min) at 40 per class and 8% at 400.
var fullSizes = sizes{
	corpus:            detect.CorpusConfig{PerFamily: 125, Seed: 1},
	triagePerClass:    400,
	rescanPerClass:    100,
	rescanCorpusEvery: 3,
	watchPerClass:     400,
	setupRepeats:      3,
	traceTargets:      400,
}

// serve-repeat traffic mix: 75% of requests are Zipf(s) draws over the
// fixed repeated targets, 25% are never-seen inline Flush+Reload
// variants that must miss the verdict cache.
const (
	serveUniqueFrac = 0.25
	serveZipfS      = 1.1
	// serveOracleSample caps how many distinct unique variants the
	// oracle re-scores serially after the run; the 500-entry serial scan
	// costs ~10 ms per target, so checking all of them would outlast the
	// measurement.
	serveOracleSample = 64
)

// serveLadder is the open-loop rate ladder of serve-repeat in requests
// per second: about 25/50/75/100% of the closed-loop capacity measured
// once on the 2-core reference box (see README.md). It is fixed here and
// never re-derived per run, so two commits are loaded identically.
// serveRefStep is the reference rate of the serve.ref_* layer metrics.
var serveLadder = [4]float64{275, 550, 825, 1100}

const serveRefStep = 1

// serve-repeat splits its measured time between the closed loop and the
// four ladder steps.
var serveShares = [5]float64{0.6, 0.1, 0.1, 0.1, 0.1}

// maxRateP99 and maxRateLag define serve.max_rate_rps: the highest
// ladder rate whose p99 and end-of-step generator lag stay below these.
const (
	maxRateP99 = 100 * time.Millisecond
	maxRateLag = 100 * time.Millisecond
)

// clients is the closed-loop client count and the open-loop connection
// count: one per CPU, so load never oversubscribes the box.
func clients() int { return runtime.NumCPU() }
