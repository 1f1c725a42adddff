// Package stream is the fault-tolerant streaming front end of
// classification: the always-on deployment shape the paper's monitor
// setting implies, where targets arrive continuously and SCAGuard must
// keep emitting verdicts even when an individual target misbehaves.
//
// Classify accepts targets on an input channel and emits one Result per
// target on the output channel as each resolves. Internally the
// pipeline has two stages connected by a bounded queue:
//
//	in ──▶ intake ──▶ modeling workers ──▶ bounded queue ──▶ scan stage ──▶ [reorder] ──▶ out
//	      (sequence)  (N× model.BuildCtx)                  (repository scan)  (Ordered)
//
// Modeling — the dominant per-target cost — fans out across
// Config.ModelWorkers goroutines and overlaps with scanning, which
// walks the shared repository engine one target at a time (each scan
// itself fans out across the engine's worker pool). The queue and the
// output channel are bounded, so a slow consumer exerts backpressure
// all the way to the input: scanning blocks, then modeling blocks, then
// the input channel stops being drained. Nothing buffers without bound;
// in-flight targets never exceed ModelWorkers + 2·Queue + 2 — a bound
// Config.Ordered turns into an explicit admission window so its reorder
// buffer stays finite too. Each stage runs once per target: modeling
// and scanning are deterministic, and the one transient step — the
// remote-shard RPC — is retried inside the shard layer.
//
// Fault isolation is per target: a panic or error anywhere in one
// target's modeling or scanning becomes a Result with Err set (panics
// as *panicsafe.PanicError, counted under telemetry panics_recovered)
// while every other target completes normally. Cancelling the context
// stops the pipeline promptly: the input stops being consumed, targets
// already accepted resolve to error results carrying the context's
// error, the output channel closes, and no goroutines are left behind —
// the isolation and leak-freedom properties are enforced by the
// fault-injection tests in this package (docs/ROBUSTNESS.md).
package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/panicsafe"
	"repro/internal/telemetry"
)

// Target is one unit of streaming work: a program to classify
// (optionally alongside its victim), or a pre-built behavior model when
// the caller already ran the modeling stage (BBS set, Program ignored).
type Target struct {
	// ID names the target in results and fault-injection details; it
	// defaults to the program/model name when empty.
	ID      string
	Program *isa.Program
	Victim  *isa.Program
	// BBS, when non-nil, skips the modeling stage.
	BBS *model.CSTBBS
}

func (t Target) id() string {
	switch {
	case t.ID != "":
		return t.ID
	case t.BBS != nil:
		return t.BBS.Name
	case t.Program != nil:
		return t.Program.Name
	}
	return "<unnamed>"
}

// Result is one resolved target. By default results are emitted as
// they resolve, not in arrival order; Seq is the arrival index for
// callers that need to reorder, and Config.Ordered makes the pipeline
// do it for them.
type Result struct {
	// ID echoes the target's identity, Seq its arrival index (0-based).
	ID  string
	Seq int
	// Verdict is the classification outcome. When Err is a
	// *shard.PartialError it is the degraded verdict over the
	// surviving shards, exactly as detect.ClassifyBBSCtx returns it;
	// under any other Err it is meaningless.
	Verdict detect.Result
	// Model is the built behavior model (nil for pre-built targets and
	// for targets that failed before modeling finished).
	Model *model.Model
	// Err is the target's failure: a modeling error, a recovered panic
	// (*panicsafe.PanicError in the chain), an injected fault, or the
	// context's error for targets accepted but unresolved when the
	// stream was cancelled. One target's Err never affects the others.
	Err error
}

// Config tunes the streaming pipeline. The zero value is ready for use.
type Config struct {
	// ModelWorkers is the number of concurrent modeling goroutines;
	// <= 0 selects GOMAXPROCS.
	ModelWorkers int
	// Queue bounds the modeled-but-not-scanned queue and the output
	// channel (per-channel capacity); <= 0 selects ModelWorkers. This
	// is the backpressure knob.
	Queue int
	// TargetTimeout, when positive, is the per-target deadline measured
	// from intake; a target that exceeds it across modeling and
	// scanning resolves to an error result with
	// context.DeadlineExceeded. It composes with the detector's own
	// per-classification Timeout (the earlier deadline wins).
	TargetTimeout time.Duration
	// Ordered emits results in arrival (Seq) order instead of
	// resolution order. The reorder buffer is bounded: intake admits at
	// most ModelWorkers + 2·Queue + 2 unemitted targets, so one slow
	// target stalls emission (head-of-line blocking, the price of
	// ordering) and backpressure reaches the producer instead of the
	// buffer growing without bound. Cancellation still resolves and
	// emits every accepted target, in order, before out closes.
	Ordered bool
}

func (c Config) withDefaults() Config {
	if c.ModelWorkers <= 0 {
		c.ModelWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = c.ModelWorkers
	}
	return c
}

// item carries one target through the pipeline stages.
type item struct {
	target   Target
	res      Result
	bbs      *model.CSTBBS
	start    time.Time // intake time (telemetry); zero when disabled
	deadline time.Time // per-target deadline; zero when none
}

// Classify runs the streaming pipeline over in until in closes or ctx
// is cancelled, whichever comes first, and closes the returned channel
// once every accepted target has resolved.
//
// The caller must drain the returned channel until it closes — after
// cancellation too. Draining is what lets the pipeline flush error
// results for accepted targets and release its goroutines; the
// channel's bounded capacity is what carries backpressure upstream when
// the caller falls behind. A producer that might outlive the stream
// should send into in under a select on the same ctx.
//
// The detector is used concurrently and must not be reconfigured while
// the stream runs (growing its repository through Add is fine, as for
// Classify).
func Classify(ctx context.Context, det *detect.Detector, in <-chan Target, cfg Config) <-chan Result {
	cfg = cfg.withDefaults()
	tel := det.Telemetry
	jobs := make(chan item)             // intake → modeling, unbuffered
	queue := make(chan item, cfg.Queue) // modeling → scan
	out := make(chan Result, cfg.Queue)

	// Ordered mode inserts a reorder stage between scanning and out and
	// caps admissions with a token window sized to the pipeline's
	// natural in-flight bound. The cap is what keeps the reorder buffer
	// finite: without it, one slow target at the emission head would
	// let intake keep accepting targets whose results can only pile up
	// in the buffer. Tokens are released after ordered emission.
	var tokens chan struct{}
	scanned := out
	if cfg.Ordered {
		tokens = make(chan struct{}, cfg.ModelWorkers+2*cfg.Queue+2)
		scanned = make(chan Result, cfg.Queue)
	}

	// Intake: sequence arrivals and stop accepting on cancellation.
	// The send into jobs needs no ctx select: the modeling workers
	// drain jobs until it closes.
	go func() {
		defer close(jobs)
		seq := 0
		for {
			select {
			case <-ctx.Done():
				return
			case t, ok := <-in:
				if !ok {
					return
				}
				if tokens != nil {
					select {
					case tokens <- struct{}{}:
					case <-ctx.Done():
						return
					}
				}
				tel.Inc(telemetry.StreamTargets)
				it := item{target: t, start: tel.Now(), bbs: t.BBS}
				it.res.ID, it.res.Seq = t.id(), seq
				seq++
				if cfg.TargetTimeout > 0 {
					it.deadline = time.Now().Add(cfg.TargetTimeout)
				}
				jobs <- it
			}
		}
	}()

	// Modeling workers. Sends into queue need no ctx select either:
	// the scan stage drains queue until it closes.
	var wg sync.WaitGroup
	wg.Add(cfg.ModelWorkers)
	for w := 0; w < cfg.ModelWorkers; w++ {
		go func() {
			defer wg.Done()
			for it := range jobs {
				if it.bbs == nil {
					it.res.Model, it.res.Err = buildOne(ctx, det, it.target, it.deadline)
					if it.res.Model != nil {
						it.bbs = it.res.Model.BBS
					}
				}
				queue <- it
			}
		}()
	}
	go func() {
		wg.Wait()
		close(queue)
	}()

	// Scan stage: one goroutine walking the shared engine; each scan
	// fans out internally. Targets that already failed pass through.
	go func() {
		defer close(scanned)
		for it := range queue {
			if it.res.Err == nil {
				it.res.Verdict, it.res.Err = scanOne(ctx, det, it.res.ID, it.bbs, it.deadline)
			}
			if it.res.Err != nil {
				tel.Inc(telemetry.StreamErrorResults)
			}
			tel.ObserveSince(telemetry.StageStreamTarget, it.start)
			scanned <- it.res
		}
	}()

	// Reorder stage (Ordered only): hold results that resolved ahead of
	// their predecessors and emit strictly by Seq. The pending map is
	// bounded by the token window; every held result is eventually
	// emitted because every accepted target resolves — cancellation
	// turns stragglers into error results, it does not drop them.
	if cfg.Ordered {
		go func() {
			defer close(out)
			pending := make(map[int]Result)
			next := 0
			emit := func(r Result) {
				out <- r
				<-tokens
				next++
			}
			for r := range scanned {
				if r.Seq != next {
					pending[r.Seq] = r
					continue
				}
				emit(r)
				for {
					r, ok := pending[next]
					if !ok {
						break
					}
					delete(pending, next)
					emit(r)
				}
			}
		}()
	}
	return out
}

// buildOne models one target under panic isolation and the target's
// deadline.
func buildOne(ctx context.Context, det *detect.Detector, t Target, deadline time.Time) (*model.Model, error) {
	mctx, cancel := deadlineCtx(ctx, deadline)
	defer cancel()
	var m *model.Model
	err := panicsafe.DoNotify(func() error {
		if err := faultinject.Fire(faultinject.StreamModel, t.id()); err != nil {
			return err
		}
		cfg := det.ModelCfg
		if cfg.Telemetry == nil {
			cfg.Telemetry = det.Telemetry
		}
		var err error
		m, err = model.BuildCtx(mctx, t.Program, t.Victim, cfg)
		return err
	}, func(*panicsafe.PanicError) { det.Telemetry.Inc(telemetry.PanicsRecovered) })
	if err != nil {
		return nil, fmt.Errorf("stream: modeling %s: %w", t.id(), err)
	}
	return m, nil
}

// scanOne classifies one modeled target under panic isolation and the
// target's deadline. Panics below the engine's worker pool are already
// recovered (and counted) inside the scan; the recovery here guards the
// detect-layer code around it. A partial scan keeps its degraded result
// alongside the error.
func scanOne(ctx context.Context, det *detect.Detector, id string, bbs *model.CSTBBS, deadline time.Time) (detect.Result, error) {
	sctx, cancel := deadlineCtx(ctx, deadline)
	defer cancel()
	var res detect.Result
	err := panicsafe.DoNotify(func() error {
		if err := faultinject.Fire(faultinject.StreamScan, id); err != nil {
			return err
		}
		var err error
		res, err = det.ClassifyBBSCtx(sctx, bbs)
		return err
	}, func(*panicsafe.PanicError) { det.Telemetry.Inc(telemetry.PanicsRecovered) })
	if err != nil {
		return res, fmt.Errorf("stream: scanning %s: %w", id, err)
	}
	return res, nil
}

// deadlineCtx applies a non-zero per-target deadline.
func deadlineCtx(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, deadline)
}
