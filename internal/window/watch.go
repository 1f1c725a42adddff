package window

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/isa"
)

// Replay feeds an already-collected event log through a fresh windowed
// detector and returns the outcome. llc must be the LLC configuration
// the trace was collected under. A truncated log is rejected: replaying
// a partial log as if it were complete would silently mis-window
// everything past the cut.
func Replay(ctx context.Context, det *detect.Detector, prog *isa.Program, llc cache.Config, tr *exec.Trace, cfg Config, emit func(Verdict)) (Outcome, error) {
	if tr == nil {
		return Outcome{}, fmt.Errorf("window: trace is nil")
	}
	if tr.EventsTruncated {
		return Outcome{}, fmt.Errorf("window: event log truncated at %d events — raise exec.Config.MaxEvents", len(tr.Events))
	}
	if len(tr.Events) == 0 {
		return Outcome{}, fmt.Errorf("window: trace has no event log — collect with exec.Config.RecordEvents")
	}
	d, err := New(det, prog, llc, cfg, emit)
	if err != nil {
		return Outcome{}, err
	}
	for _, ev := range tr.Events {
		if err := d.Feed(ctx, ev); err != nil {
			return d.Outcome(), err
		}
	}
	return d.Finish(ctx)
}

// Watch runs prog (with an optional victim) on a fresh machine and
// streams its events straight into a windowed detector — the one-call
// path behind `scaguard watch`. Verdicts go to emit as the run crosses
// window boundaries, while the program is still running. No event log
// is kept, so memory is bounded by one window rather than by the run,
// and execCfg's RecordEvents and MaxEvents do not apply. The verdicts
// and the outcome are those of Replay over the recorded log of the same
// run. A cancelled ctx stops the simulation at the next window boundary.
func Watch(ctx context.Context, det *detect.Detector, prog, victim *isa.Program, execCfg exec.Config, cfg Config, emit func(Verdict)) (Outcome, error) {
	m, err := exec.NewMachine(execCfg, prog, victim)
	if err != nil {
		return Outcome{}, err
	}
	defer m.Release()
	d, err := New(det, prog, m.Hierarchy().LLC().Config(), cfg, emit)
	if err != nil {
		return Outcome{}, err
	}
	if _, err := m.RunEvents(func(ev exec.Event) error { return d.Feed(ctx, ev) }); err != nil {
		return d.Outcome(), err
	}
	return d.Finish(ctx)
}
