// Package stream is the fault-tolerant streaming front end of
// classification: the always-on deployment shape the paper's monitor
// setting implies, where targets arrive continuously and SCAGuard must
// keep emitting verdicts even when an individual target misbehaves.
//
// Classify accepts targets on an input channel and emits one Result per
// target, in arrival order, on the output channel. It is an ordered
// worker pool around the detector's one per-target call:
//
//	in ──▶ intake ──▶ workers (N× det.ClassifyCtx) ──┐
//	         │                                       ▼
//	         └──▶ FIFO of result slots (2N) ──▶ emitter ──▶ out
//
// Intake gives every accepted target a result slot and queues the slot
// on a bounded FIFO before handing the target to a worker. Each worker
// runs Detector.ClassifyCtx — modeling then the repository scan — and
// fills the target's slot; the emitter drains the FIFO head first, so
// results leave in arrival order. The one FIFO both orders the output
// and caps admission: at most 2·workers + 2 targets are read from in
// but not yet received from out (the FIFO's 2·workers slots, the one
// the emitter holds, and the one intake is queueing). A slow consumer
// or a slow head target therefore exerts backpressure all the way to
// the input instead of growing a buffer; the price of ordering is
// head-of-line blocking. Classification runs once per target:
// modeling and scanning are deterministic, and the one transient step,
// the remote-shard RPC, fails over inside the shard layer.
//
// Fault isolation is per target: ClassifyCtx turns a panic anywhere in
// one target's modeling or scanning into that target's error
// (*panicsafe.PanicError, counted under telemetry panics_recovered), so
// it becomes a Result with Err set while every other target completes
// normally. The per-target deadline is the detector's Timeout, which
// starts when a worker picks the target up. Cancelling the context
// stops the pipeline promptly: the input stops being consumed, targets
// already accepted resolve to error results carrying the context's
// error, the output channel closes, and no goroutines are left behind —
// the isolation and leak-freedom properties are enforced by the
// fault-injection tests in this package (docs/ROBUSTNESS.md).
package stream

import (
	"context"
	"runtime"
	"time"

	"repro/internal/detect"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Target is one unit of streaming work: a program to classify,
// optionally alongside its victim, or a failure the caller hit while
// resolving the target (Err set, Program ignored).
type Target struct {
	// ID names the target in results; it defaults to the program name
	// when empty.
	ID      string
	Program *isa.Program
	Victim  *isa.Program
	// Err, when non-nil, is emitted as this target's result in its
	// arrival position without classifying: a front end's resolution
	// failure (an unreadable spec, an unparsable line) keeps its place
	// in the ordered output.
	Err error
}

func (t Target) id() string {
	switch {
	case t.ID != "":
		return t.ID
	case t.Program != nil:
		return t.Program.Name
	}
	return "<unnamed>"
}

// Result is one resolved target, emitted in arrival order.
type Result struct {
	// ID echoes the target's identity, Seq its arrival index (0-based).
	ID  string
	Seq int
	// Verdict is the classification outcome. When Err is a
	// *shard.PartialError it is the degraded verdict over the
	// surviving shards, exactly as detect.ClassifyCtx returns it;
	// under any other Err it is meaningless.
	Verdict detect.Result
	// Model is the built behavior model (nil for targets that failed
	// before modeling finished).
	Model *model.Model
	// Err is the target's failure: the target's own Err, a modeling
	// error, a recovered panic (*panicsafe.PanicError in the chain), an
	// injected fault, or the context's error for targets accepted but
	// unresolved when the stream was cancelled. One target's Err never
	// affects the others.
	Err error
}

// job is one accepted target on its way to a worker, with the slot its
// result goes into.
type job struct {
	t     Target
	res   Result
	start time.Time // intake time (telemetry); zero when disabled
	slot  chan Result
}

// Classify runs the streaming pipeline over in until in closes or ctx
// is cancelled, whichever comes first, and closes the returned channel
// once every accepted target's result has been emitted. workers <= 0
// selects GOMAXPROCS.
//
// The caller must drain the returned channel until it closes — after
// cancellation too. Draining is what lets the pipeline flush error
// results for accepted targets and release its goroutines; the
// unbuffered output is what carries backpressure upstream when the
// caller falls behind. A producer that might outlive the stream should
// send into in under a select on the same ctx.
//
// The detector is used concurrently and must not be reconfigured while
// the stream runs (growing its repository through Add is fine, as for
// ClassifyCtx).
func Classify(ctx context.Context, det *detect.Detector, in <-chan Target, workers int) <-chan Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tel := det.Telemetry
	jobs := make(chan job)
	// 2·workers slots let every worker hold a target, with as many
	// resolved behind them, while a slow head target waits.
	fifo := make(chan chan Result, 2*workers)
	out := make(chan Result)

	// Intake: sequence arrivals, queue each one's slot (blocking while
	// the FIFO is full — the admission cap) and dispatch it. Once its
	// slot is queued a target is accepted, so the dispatch needs no ctx
	// select: the workers drain jobs until it closes, and a cancelled
	// target resolves to the context's error.
	go func() {
		defer close(fifo)
		defer close(jobs)
		for seq := 0; ; seq++ {
			var t Target
			select {
			case <-ctx.Done():
				return
			case next, ok := <-in:
				if !ok {
					return
				}
				t = next
			}
			j := job{t: t, res: Result{ID: t.id(), Seq: seq}, slot: make(chan Result, 1)}
			select {
			case fifo <- j.slot:
			case <-ctx.Done():
				return
			}
			tel.Inc(telemetry.StreamTargets)
			j.start = tel.Now()
			if t.Err != nil {
				j.res.Err = t.Err
				j.finish(tel)
				continue
			}
			jobs <- j
		}
	}()

	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				j.res.Verdict, j.res.Model, j.res.Err = det.ClassifyCtx(ctx, j.t.Program, j.t.Victim)
				j.finish(tel)
			}
		}()
	}

	// Emitter: every queued slot is filled eventually, because every
	// accepted target is dispatched and resolves — cancellation turns
	// stragglers into error results, it does not drop them.
	go func() {
		defer close(out)
		for slot := range fifo {
			out <- <-slot
		}
	}()
	return out
}

// finish records the target's outcome and fills its slot; the slot's
// one-element buffer means this never blocks.
func (j job) finish(tel *telemetry.Collector) {
	if j.res.Err != nil {
		tel.Inc(telemetry.StreamErrorResults)
	}
	tel.ObserveSince(telemetry.StageStreamTarget, j.start)
	j.slot <- j.res
}
