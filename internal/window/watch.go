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

// Watch runs prog (with an optional victim) on a fresh machine with
// event recording enabled, then replays the log through a windowed
// detector — the one-call path behind `scaguard watch`. execCfg's
// RecordEvents is forced on (the replay reads only the event log).
// Verdicts stream through emit as the replay crosses window boundaries,
// exactly as they would have during a live run.
func Watch(ctx context.Context, det *detect.Detector, prog, victim *isa.Program, execCfg exec.Config, cfg Config, emit func(Verdict)) (Outcome, error) {
	execCfg.RecordEvents = true
	m, err := exec.NewMachine(execCfg, prog, victim)
	if err != nil {
		return Outcome{}, err
	}
	tr := m.Run()
	return Replay(ctx, det, prog, m.Hierarchy().LLC().Config(), tr, cfg, emit)
}
