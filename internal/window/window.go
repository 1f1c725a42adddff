// Package window implements online sliding-window detection over live
// execution traces. Where the post-hoc pipeline models a *finished*
// trace and classifies it once, this package consumes the chronological
// events (exec.Event) incrementally — streamed from a running machine by
// Watch, or from a recorded log by Replay — maintains a CST-BBS model per
// time window via the incremental builder (model.WindowBuilder), and
// pushes every window through the unchanged detector seam
// (detect.ClassifyBBSCtx) — so verdicts stream out mid-trace with full
// vcache/cascade/index/shard support, and an in-flight Flush+Reload is
// flagged malicious before the trace ends.
//
// Semantics (see docs/WINDOWING.md for the full treatment):
//
//   - Windows are half-open cycle intervals [start, start+Size),
//     advancing by Stride from cycle 0. The half-open convention is
//     forced by the exec ordering contract: event cycles are
//     nondecreasing but may repeat, so only interval *boundaries* are
//     unambiguous.
//   - A window with no events is quiet: it never reaches modeling and
//     yields an explicit benign verdict with Reason ReasonQuietWindow.
//     With QuietGap > 0, runs of quiet windows spanning at least
//     QuietGap cycles collapse into one ReasonQuietGap verdict.
//   - A window whose model fails a detector prerequisite (too few
//     transitions, no timer reads) yields benign-with-reason — the gate
//     reason from detect.GateReason — never an error or a spurious
//     match.
//   - The verdict stream is a pure function of (trace, config): fixed
//     inputs replay to the identical stream.
package window

import (
	"context"
	"fmt"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Default window geometry: with the default machine a Flush+Reload
// round (flush sweep, wait loop, timed reload sweep) spans a few
// thousand cycles, so 8192-cycle windows hold at least one full round —
// enough cache-state transitions to clear the MinModelLen gate — while
// a multi-round PoC still spreads over several windows.
const (
	DefaultSize   = 8192
	DefaultStride = 4096
)

// Reasons attached to verdicts that never reached the similarity
// comparison. Gate reasons (detect.GateModelTooShort,
// detect.GateNoTimerReads) also appear in Verdict.Reason verbatim.
const (
	// ReasonQuietWindow: the window contained no events at all.
	ReasonQuietWindow = "quiet-window"
	// ReasonQuietGap: a run of quiet windows spanning at least
	// Config.QuietGap cycles, collapsed into this one verdict.
	ReasonQuietGap = "quiet-gap"
)

// Config tunes a sliding-window Detector.
type Config struct {
	// Size is the window width in cycles (0 = DefaultSize).
	Size uint64
	// Stride is the cycle distance between consecutive window starts
	// (0 = DefaultStride when Size is defaulted too, else = Size).
	// Must not exceed Size: a stride past the window width would leave
	// unobserved gaps between windows.
	Stride uint64
	// QuietGap, when > 0, collapses runs of consecutive empty windows
	// spanning at least this many cycles into a single quiet verdict.
	// 0 emits one verdict per empty window.
	QuietGap uint64
	// Telemetry optionally records window counters and modeling-stage
	// timings; nil falls back to the detector's collector.
	Telemetry *telemetry.Collector
}

// Validate reports whether the geometry is usable after defaulting —
// the check front ends run before a detector exists, so a bad stride
// becomes a clean client error instead of a per-target failure.
func (c Config) Validate() error {
	_, err := c.withDefaults(nil)
	return err
}

func (c Config) withDefaults(det *detect.Detector) (Config, error) {
	if c.Size == 0 {
		c.Size = DefaultSize
		if c.Stride == 0 {
			c.Stride = DefaultStride
		}
	}
	if c.Stride == 0 {
		c.Stride = c.Size
	}
	if c.Stride > c.Size {
		return c, fmt.Errorf("window: stride %d exceeds size %d (windows would leave gaps)", c.Stride, c.Size)
	}
	if c.Telemetry == nil && det != nil {
		c.Telemetry = det.Telemetry
	}
	return c, nil
}

// Verdict is the classification of one window.
type Verdict struct {
	// Index is the emission position in the verdict stream (0-based).
	Index int
	// Start and End delimit the half-open cycle interval [Start, End).
	// A collapsed quiet-gap verdict spans the whole run.
	Start, End uint64
	// Events is the number of log events that fell in the window.
	Events int
	// ModelLen is the CST-BBS length of the window's model (0 when the
	// window was quiet).
	ModelLen int
	// Reason explains a benign-by-construction verdict: quiet windows
	// (ReasonQuietWindow, ReasonQuietGap) and gated models
	// (detect.GateModelTooShort, detect.GateNoTimerReads). Empty for
	// windows that reached the similarity comparison.
	Reason string
	// Result is the detector's classification; quiet and gated windows
	// carry the explicit benign result. A window whose scan degraded
	// (Err wraps a *shard.PartialError) carries the verdict over the
	// surviving shards.
	Result detect.Result
	// Err records a per-window failure (modeling fault, scan fault,
	// emit fault). The stream keeps flowing past an errored window, and
	// the Outcome counts it under Errors whatever its Result.
	Err error
}

// Malicious reports whether the window was classified as an attack.
func (v Verdict) Malicious() bool {
	return v.Err == nil && v.Result.Predicted != "" && v.Result.Predicted != attacks.FamilyBenign
}

// Outcome summarizes a completed windowed run.
type Outcome struct {
	// Windows, Hits, Quiet and Errors count emitted verdicts, malicious
	// verdicts, quiet verdicts and errored windows.
	Windows int
	Hits    int
	Quiet   int
	Errors  int
	// FirstEventCycle is the cycle of the first event fed in.
	FirstEventCycle uint64
	// DetectionCycle is the End of the first malicious window — the
	// earliest virtual time at which an online deployment would have
	// raised the alarm. Valid only when Detected.
	DetectionCycle uint64
	Detected       bool
	// Final is the overall verdict: the Result of the highest-scoring
	// window (ties keep the earliest), or the explicit benign result if
	// no window ever matched. This is what the differential tests
	// compare against post-hoc classification of the full trace.
	Final detect.Result
	// FinalWindow is the Index of the window Final came from (-1 when
	// no window was scanned).
	FinalWindow int
}

// LatencyToDetection returns the latency-to-detection metric: cycles
// between the first event entering a window and the first malicious
// verdict. False when nothing malicious was flagged.
func (o Outcome) LatencyToDetection() (uint64, bool) {
	if !o.Detected {
		return 0, false
	}
	return o.DetectionCycle - o.FirstEventCycle, true
}

// Detector is the online sliding-window detector for one monitored
// program. Feed it the program's events in order; verdicts stream
// out through the emit callback as windows close. Not safe for
// concurrent use — a trace is inherently sequential.
type Detector struct {
	cfg  Config
	det  *detect.Detector
	wb   *model.WindowBuilder
	tb   *exec.TraceBuilder // rebuilds each window's trace, Reset between windows
	name string
	emit func(Verdict)

	started bool
	last    uint64 // last fed event cycle
	cur     uint64 // current window start
	buf     []exec.Event
	next    int // next verdict index

	quiet []Verdict // pending quiet verdicts awaiting collapse

	out Outcome
	err error // sticky stream error
}

// New builds a windowed detector for prog. det supplies the repository,
// scan configuration and model config; llc is the LLC configuration the
// event log is collected under (it parameterizes the overlap filter,
// exactly as in post-hoc modeling).
func New(det *detect.Detector, prog *isa.Program, llc cache.Config, cfg Config, emit func(Verdict)) (*Detector, error) {
	if det == nil {
		return nil, fmt.Errorf("window: detector is nil")
	}
	cfg, err := cfg.withDefaults(det)
	if err != nil {
		return nil, err
	}
	wb, err := model.NewWindowBuilder(prog, llc, det.ModelCfg)
	if err != nil {
		return nil, err
	}
	return &Detector{
		cfg:  cfg,
		det:  det,
		wb:   wb,
		tb:   exec.NewTraceBuilder(prog),
		name: prog.Name,
		emit: emit,
		out:  Outcome{Final: detect.BenignResult(), FinalWindow: -1},
	}, nil
}

// Feed consumes one event of the log. Events must arrive in log order;
// a decreasing cycle violates the exec ordering contract and poisons
// the stream (the error is sticky). Windows that close before the
// event's cycle are emitted inline; a cancelled ctx is returned, sticky
// too, when the next window would close, and nothing more is emitted.
func (d *Detector) Feed(ctx context.Context, ev exec.Event) error {
	if d.err != nil {
		return d.err
	}
	if d.started && ev.Cycle < d.last {
		d.err = fmt.Errorf("window: event cycle %d below predecessor %d — input violates the nondecreasing-cycle contract (see exec.Event)", ev.Cycle, d.last)
		return d.err
	}
	if !d.started {
		d.started = true
		d.out.FirstEventCycle = ev.Cycle
	}
	d.last = ev.Cycle
	for ev.Cycle >= d.cur+d.cfg.Size {
		if err := d.closeWindow(ctx); err != nil {
			d.err = err
			return err
		}
	}
	d.buf = append(d.buf, ev)
	return nil
}

// Finish flushes every window still holding events plus any pending
// quiet run, and returns the run's outcome. The detector must not be
// fed afterwards.
func (d *Detector) Finish(ctx context.Context) (Outcome, error) {
	if d.err != nil {
		return d.out, d.err
	}
	for len(d.buf) > 0 {
		if err := d.closeWindow(ctx); err != nil {
			d.err = err
			return d.out, err
		}
	}
	d.flushQuiet()
	return d.out, nil
}

// Outcome returns the running outcome (valid mid-stream; final after
// Finish).
func (d *Detector) Outcome() Outcome { return d.out }

// closeWindow emits the verdict for [cur, cur+Size) and advances by one
// stride, trimming buffered events that fall before the new start.
func (d *Detector) closeWindow(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start, end := d.cur, d.cur+d.cfg.Size
	// All buffered events are >= start (trimmed on advance) and < end
	// (Feed closes windows before buffering a later event).
	n := len(d.buf)
	if n == 0 {
		d.queueQuiet(Verdict{Start: start, End: end, Reason: ReasonQuietWindow, Result: detect.BenignResult()})
	} else {
		d.flushQuiet()
		v := d.classify(ctx, start, end)
		if err := ctx.Err(); err != nil {
			return err
		}
		d.deliver(v)
	}
	d.cur += d.cfg.Stride
	trim := 0
	for trim < len(d.buf) && d.buf[trim].Cycle < d.cur {
		trim++
	}
	d.buf = d.buf[:copy(d.buf, d.buf[trim:])]
	return nil
}

// classify models and scans one non-empty window.
func (d *Detector) classify(ctx context.Context, start, end uint64) Verdict {
	v := Verdict{Start: start, End: end, Events: len(d.buf), Result: detect.BenignResult()}
	tel := d.cfg.Telemetry
	t0 := tel.Now()
	d.tb.Reset()
	for _, ev := range d.buf {
		d.tb.Apply(ev)
	}
	// The model copies what it keeps out of the trace, so the builder's
	// storage is free for the next window once Build returns.
	m, err := d.wb.Build(ctx, d.tb.Trace(end))
	tel.ObserveSince(telemetry.StageWindowModel, t0)
	if err != nil {
		v.Err = fmt.Errorf("window: modeling [%d,%d): %w", start, end, err)
		return v
	}
	v.ModelLen = m.BBS.Len()
	if reason := d.det.GateReason(m.BBS); reason != "" {
		// Benign by construction — the explicit benign-with-reason
		// verdict; no repository comparison happens.
		v.Reason = reason
		return v
	}
	// A partial scan keeps its degraded result alongside the error, as
	// detect.ClassifyBBSCtx returns it; the error still marks the window.
	res, err := d.det.ClassifyBBSCtx(ctx, m.BBS)
	v.Result = res
	if err != nil {
		v.Err = fmt.Errorf("window: scanning [%d,%d): %w", start, end, err)
	}
	return v
}

// queueQuiet holds back an empty-window verdict for possible collapse.
func (d *Detector) queueQuiet(v Verdict) {
	if d.cfg.QuietGap == 0 {
		d.deliver(v)
		return
	}
	d.quiet = append(d.quiet, v)
}

// flushQuiet emits the pending quiet run: collapsed to one verdict when
// it spans at least QuietGap cycles, individually otherwise.
func (d *Detector) flushQuiet() {
	if len(d.quiet) == 0 {
		return
	}
	run := d.quiet
	d.quiet = nil
	span := run[len(run)-1].End - run[0].Start
	if span >= d.cfg.QuietGap {
		d.deliver(Verdict{
			Start:  run[0].Start,
			End:    run[len(run)-1].End,
			Reason: ReasonQuietGap,
			Result: detect.BenignResult(),
		})
		return
	}
	for _, v := range run {
		d.deliver(v)
	}
}

// deliver assigns the stream index, fires the emit failpoint, updates
// telemetry and the outcome, and hands the verdict to the callback.
func (d *Detector) deliver(v Verdict) {
	v.Index = d.next
	d.next++
	if err := faultinject.Fire(faultinject.WindowEmit, fmt.Sprintf("%s#%d", d.name, v.Index)); err != nil {
		// A failing downstream consumer poisons this verdict only; the
		// stream keeps flowing.
		v.Err = fmt.Errorf("window: emit %s#%d: %w", d.name, v.Index, err)
	}
	tel := d.cfg.Telemetry
	tel.Inc(telemetry.WindowEmitted)
	d.out.Windows++
	switch {
	case v.Err != nil:
		d.out.Errors++
	case v.Reason == ReasonQuietWindow || v.Reason == ReasonQuietGap:
		tel.Inc(telemetry.WindowQuiet)
		d.out.Quiet++
	}
	if v.Malicious() {
		tel.Inc(telemetry.WindowHits)
		d.out.Hits++
		if !d.out.Detected {
			d.out.Detected = true
			d.out.DetectionCycle = v.End
		}
	}
	if v.Err == nil && (d.out.FinalWindow < 0 || v.Result.Best.Score > d.out.Final.Best.Score) {
		d.out.Final = v.Result
		d.out.FinalWindow = v.Index
	}
	if d.emit != nil {
		d.emit(v)
	}
}
