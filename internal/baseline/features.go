// Package baseline re-implements the four detection approaches the
// paper compares against (Section IV-D):
//
//   - SCADET (Sabbagh et al., ICCAD'18) — a learning-free rule engine
//     that tracks Prime+Probe patterns in cache-set access traces;
//   - SVM-NW and LR-NW (Mushtaq et al., NIGHTs-WATCH, HASP'18) — linear
//     classifiers over windowed HPC features;
//   - KNN-MLFM (Allaf et al., UKCI'17) — a k-nearest-neighbor classifier
//     over hot-loop HPC signatures.
//
// The learners are trained on labeled samples (10-fold cross-validation
// in the experiments); SCADET needs no training but only ever knows the
// attack families its rules describe.
package baseline

import (
	"math"
	"sort"

	"repro/internal/exec"
	"repro/internal/hpc"
)

// nwEvents is the counter subset the NIGHTs-WATCH detectors sample in
// real time — a handful of miss/hit/branch counters, not the full
// Table-I set (the original system monitors three to four counters per
// run; richer vectors would overstate the baseline).
var nwEvents = [...]hpc.Event{
	hpc.L1DLoadMiss,
	hpc.LLCLoadMiss,
	hpc.LLCLoadHit,
	hpc.BranchMiss,
}

// FeatureDim is the length of the HPC feature vector used by the
// NIGHTs-WATCH-style classifiers: mean and max of each sampled counter
// across sampling windows, plus the window count and total cycles.
const FeatureDim = len(nwEvents)*2 + 2

// WindowFeatures summarizes a run's window samples (Recorder.Windows)
// into a fixed vector: per sampled NIGHTs-WATCH counter the mean and
// max of the per-window counts, then the number of windows and the
// run's total cycle count (both log-scaled to keep magnitudes
// comparable).
func WindowFeatures(windows []WindowSample, cycles uint64) []float64 {
	out := make([]float64, 0, FeatureDim)
	n := len(windows)
	for _, e := range nwEvents {
		var sum, maxV float64
		for _, w := range windows {
			v := float64(w.Counts[e])
			sum += v
			if v > maxV {
				maxV = v
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		out = append(out, mean, maxV)
	}
	out = append(out, math.Log1p(float64(n)), math.Log1p(float64(cycles)))
	return out
}

// LoopFeatureDim is the KNN-MLFM feature length: the HPC event vectors
// of the topLoops hottest instructions (by execution count), each with
// its log execution count.
const (
	topLoops       = 4
	LoopFeatureDim = topLoops * (hpc.NumCounted + 1)
)

// LoopFeatures extracts the "malicious loop finding" features: the
// per-event counts and execution counts of the hottest instructions
// among those that retired or touched a line, which approximate the
// program's dominant loops. Ties go to the lower address.
func LoopFeatures(tr *exec.Trace) []float64 {
	var hots []*exec.InsnRecord
	for i := range tr.Insns {
		if tr.Insns[i].Seen {
			hots = append(hots, &tr.Insns[i])
		}
	}
	// Insns is in address order, so a stable sort breaks ties by it.
	sort.SliceStable(hots, func(i, j int) bool { return hots[i].ExecCount > hots[j].ExecCount })
	out := make([]float64, 0, LoopFeatureDim)
	for i := 0; i < topLoops; i++ {
		if i < len(hots) {
			for e := hpc.Event(0); e < hpc.NumEvents; e++ {
				if e.Counted() {
					out = append(out, float64(hots[i].HPC[e]))
				}
			}
			out = append(out, math.Log1p(float64(hots[i].ExecCount)))
		} else {
			for j := 0; j < hpc.NumCounted+1; j++ {
				out = append(out, 0)
			}
		}
	}
	return out
}

// Standardizer z-scores feature vectors using statistics of the training
// set; a zero-variance feature passes through unchanged.
type Standardizer struct {
	Mean []float64
	Std  []float64
}

// FitStandardizer computes per-dimension statistics.
func FitStandardizer(xs [][]float64) *Standardizer {
	if len(xs) == 0 {
		return &Standardizer{}
	}
	dim := len(xs[0])
	s := &Standardizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, x := range xs {
		for i, v := range x {
			s.Mean[i] += v
		}
	}
	for i := range s.Mean {
		s.Mean[i] /= float64(len(xs))
	}
	for _, x := range xs {
		for i, v := range x {
			d := v - s.Mean[i]
			s.Std[i] += d * d
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] / float64(len(xs)))
		if s.Std[i] == 0 {
			s.Std[i] = 1
		}
	}
	return s
}

// Apply standardizes one vector (a copy is returned).
func (s *Standardizer) Apply(x []float64) []float64 {
	if len(s.Mean) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v - s.Mean[i]) / s.Std[i]
	}
	return out
}
