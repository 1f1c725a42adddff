package baseline

import (
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/hpc"
)

// SetAccess is one entry of the chronological cache-set access trace
// SCADET reads: a data-line touch or flush of the monitored process.
type SetAccess struct {
	Cycle uint64
	Set   int    // LLC set index
	Line  uint64 // line-aligned address
	PC    uint64
	Flush bool
}

// WindowSample is one fixed-width time window of HPC activity; the
// NIGHTs-WATCH learners build their feature vectors from sequences of
// these.
type WindowSample struct {
	StartCycle uint64
	Counts     hpc.Counts
}

// Defaults of a Recorder.
const (
	// DefaultMaxSetTrace caps the set trace; later accesses are dropped.
	DefaultMaxSetTrace = 1 << 20
	// DefaultWindowWidth is the width in cycles of a window sample.
	DefaultWindowWidth = 2048
)

// Recorder is the event sink of the baselines: handed to
// exec.Machine.RunEvents, it keeps the cache-set trace SCADET reads and
// the window samples WindowFeatures reads. It never fails a run.
type Recorder struct {
	// SetTrace holds the first DefaultMaxSetTrace data-line accesses.
	SetTrace []SetAccess
	// Windows holds the window samples closed so far; Finish closes the
	// trailing partial one.
	Windows []WindowSample

	llc         cache.Config
	maxSetTrace int
	width       uint64
	cur         WindowSample
}

// NewRecorder returns an empty recorder that maps lines to the sets of
// an LLC of configuration llc (the run's Hierarchy.LLC).
func NewRecorder(llc cache.Config) *Recorder {
	return &Recorder{llc: llc, maxSetTrace: DefaultMaxSetTrace, width: DefaultWindowWidth}
}

// Feed records one event. A memory or flush event adds a set-trace
// entry, an HPC event counts into the current window, and a retirement
// closes every window that ends at or before its cycle.
func (r *Recorder) Feed(ev exec.Event) error {
	switch ev.Kind {
	case exec.EvMem, exec.EvFlush:
		if len(r.SetTrace) < r.maxSetTrace {
			r.SetTrace = append(r.SetTrace, SetAccess{Cycle: ev.Cycle, Set: r.llc.SetIndex(ev.Line),
				Line: ev.Line, PC: ev.PC, Flush: ev.Kind == exec.EvFlush})
		}
	case exec.EvHPC:
		r.cur.Counts[ev.HPC]++
	case exec.EvRetire:
		for ev.Cycle >= r.cur.StartCycle+r.width {
			r.Windows = append(r.Windows, r.cur)
			r.cur = WindowSample{StartCycle: r.cur.StartCycle + r.width}
		}
	}
	return nil
}

// Finish closes the trailing partial window, if it counted anything.
// Call it once, after the run.
func (r *Recorder) Finish() {
	if r.cur.Counts.Total() > 0 {
		r.Windows = append(r.Windows, r.cur)
	}
}
