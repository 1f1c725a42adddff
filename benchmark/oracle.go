package main

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/window"
)

// verdict is the part of an outcome the benchmark checks bit for bit:
// the predicted family and the best match's name and exact score. For
// watch it also carries the windowed run's summary, which must repeat
// identically on every run of a trace.
type verdict struct {
	Pred  attacks.Family
	Best  string
	Score float64

	Windows, Hits, Quiet, Errors, FinalWindow int
	Detected                                  bool
	FirstEventCycle, DetectionCycle           uint64
}

func resultVerdict(r detect.Result) verdict {
	return verdict{Pred: r.Predicted, Best: r.Best.Name, Score: r.Best.Score}
}

func outcomeVerdict(o window.Outcome) verdict {
	v := resultVerdict(o.Final)
	v.Windows, v.Hits, v.Quiet, v.Errors, v.FinalWindow = o.Windows, o.Hits, o.Quiet, o.Errors, o.FinalWindow
	v.Detected, v.FirstEventCycle, v.DetectionCycle = o.Detected, o.FirstEventCycle, o.DetectionCycle
	return v
}

// same compares two verdicts, scores by their bits.
func (v verdict) same(w verdict) bool {
	a, b := v, w
	a.Score, b.Score = 0, 0
	return a == b && math.Float64bits(v.Score) == math.Float64bits(w.Score)
}

// oracle is the reference the fast paths are checked against: the
// serial exact scan (scan.Engine.ScanSerial) over the detector's
// repository, thresholded and gated exactly as the detector does.
type oracle struct {
	det     *detect.Detector
	entries []detect.Entry
	eng     *scan.Engine
}

func newOracle(det *detect.Detector) *oracle {
	entries := det.Repo.Entries
	models := make([]*model.CSTBBS, len(entries))
	for i, e := range entries {
		models[i] = e.BBS
	}
	return &oracle{det: det, entries: entries, eng: scan.New(models, scan.Config{Sim: det.SimOpts})}
}

func (o *oracle) verdict(bbs *model.CSTBBS) verdict {
	if o.det.GateReason(bbs) != "" || len(o.entries) == 0 {
		return resultVerdict(detect.BenignResult())
	}
	ms := o.eng.ScanSerial(bbs)
	best := 0
	for i := range ms {
		if ms[i].Score > ms[best].Score {
			best = i
		}
	}
	v := verdict{Pred: attacks.FamilyBenign, Best: o.entries[best].Name, Score: ms[best].Score}
	if v.Score >= o.det.Threshold {
		v.Pred = o.entries[best].Family
	}
	return v
}

// parallel runs f(i) for i in [0,n) on clients() goroutines; it is for
// untimed work such as oracle checks.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
