package stream

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// TestStreamOrderedEmission: with Ordered set, results come out in
// arrival order even when the first target resolves last. The head
// target is a real program (modeling work) slowed further by a fault-
// injected stall, while the rest are pre-built and would normally
// overtake it.
func TestStreamOrderedEmission(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	_, poc, bbs := fixtures(t)
	want := d.ClassifyBBS(bbs)
	faultinject.Enable(faultinject.StreamModel,
		faultinject.Match("t00", faultinject.Sleep(100*time.Millisecond)))

	before := runtime.NumGoroutine()
	const n = 8
	in := make(chan Target, n)
	in <- Target{ID: "t00", Program: poc.Program, Victim: poc.Victim}
	for i := 1; i < n; i++ {
		in <- Target{ID: fmt.Sprintf("t%02d", i), BBS: bbs}
	}
	close(in)
	results := drain(Classify(context.Background(), d, in, Config{Ordered: true, ModelWorkers: 4}))
	checkNoLeak(t, before)

	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("emission %d carries seq %d — not in arrival order: %+v", i, r.Seq, results)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if i > 0 && (r.Verdict.Predicted != want.Predicted || r.Verdict.Best.Name != want.Best.Name) {
			t.Errorf("%s verdict %+v, want %+v", r.ID, r.Verdict.Best, want.Best)
		}
	}
}

// TestStreamOrderedBoundedAdmission: the reorder buffer must not grow
// without bound while the emission head is stuck — intake stops
// admitting once ModelWorkers + 2·Queue + 2 targets are unemitted, and
// backpressure reaches the producer.
func TestStreamOrderedBoundedAdmission(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	_, _, bbs := fixtures(t)
	faultinject.Enable(faultinject.StreamScan,
		faultinject.Match("t000", faultinject.Sleep(400*time.Millisecond)))

	cfg := Config{Ordered: true, ModelWorkers: 1, Queue: 1} // window = 1 + 2 + 2 = 5
	const window = 5
	var sent atomic.Int64
	in := make(chan Target) // unbuffered: every accepted send was admitted
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer close(in)
		for i := 0; i < 40; i++ {
			select {
			case in <- Target{ID: fmt.Sprintf("t%03d", i), BBS: bbs}:
				sent.Add(1)
			case <-ctx.Done():
				return
			}
		}
	}()
	out := Classify(ctx, d, in, cfg)

	// While the head target's scan is stalled nothing can be emitted,
	// so admissions must flatline at the window (plus the one send
	// blocked in the unbuffered channel).
	time.Sleep(200 * time.Millisecond)
	if got := sent.Load(); got > window+1 {
		t.Fatalf("intake admitted %d targets while emission was blocked, want <= %d", got, window+1)
	}
	results := drain(out)
	if len(results) != 40 {
		t.Fatalf("results = %d, want 40", len(results))
	}
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("emission %d carries seq %d", i, r.Seq)
		}
	}
}

// TestStreamOrderedCancellation: cancelling mid-stream still emits
// every accepted target, in order and without gaps, then closes the
// channel with no goroutines (or admission tokens) left behind.
func TestStreamOrderedCancellation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	_, _, bbs := fixtures(t)
	faultinject.Enable(faultinject.StreamScan, faultinject.Sleep(10*time.Millisecond))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Target)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case in <- Target{ID: fmt.Sprintf("t%03d", i), BBS: bbs}:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := Classify(ctx, d, in, Config{Ordered: true, ModelWorkers: 2})
	first := <-out
	if first.Seq != 0 {
		t.Fatalf("first emission has seq %d", first.Seq)
	}
	cancel()
	rest := drain(out)
	checkNoLeak(t, before)
	for i, r := range rest {
		if r.Seq != i+1 {
			t.Fatalf("post-cancel emission %d carries seq %d — ordered flush broke", i, r.Seq)
		}
	}
}

// TestStreamStagesRunOnce: each pipeline stage runs once per target. A
// fault that hits a target's modeling or scan once resolves that target
// to an error result — the stream does not re-run a deterministic stage
// (transient remote-shard RPC failures are retried in the shard layer)
// — while the other targets verdict normally.
func TestStreamStagesRunOnce(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	_, poc, bbs := fixtures(t)
	want := d.ClassifyBBS(bbs)

	var modelCalls, scanCalls atomic.Int64
	faultinject.Enable(faultinject.StreamModel, func(p faultinject.Point, detail string) error {
		if detail == "model-blip" && modelCalls.Add(1) == 1 {
			return errors.New("one-shot model blip")
		}
		return nil
	})
	faultinject.Enable(faultinject.StreamScan, func(p faultinject.Point, detail string) error {
		if detail == "scan-blip" && scanCalls.Add(1) == 1 {
			return errors.New("one-shot scan blip")
		}
		return nil
	})

	in := make(chan Target, 3)
	in <- Target{ID: "model-blip", Program: poc.Program, Victim: poc.Victim}
	in <- Target{ID: "scan-blip", BBS: bbs}
	in <- Target{ID: "clean", BBS: bbs}
	close(in)
	results := drain(Classify(context.Background(), d, in, Config{Ordered: true}))
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if r := results[0]; r.Err == nil || r.Model != nil {
		t.Errorf("model-blip = %+v, want an error result without a model", r)
	}
	if r := results[1]; r.Err == nil {
		t.Errorf("scan-blip = %+v, want an error result", r)
	}
	if r := results[2]; r.Err != nil || r.Verdict.Best.Name != want.Best.Name {
		t.Errorf("clean = %+v, want the direct verdict", r)
	}
	if m, s := modelCalls.Load(), scanCalls.Load(); m != 1 || s != 1 {
		t.Errorf("faulted stages ran %d (model) and %d (scan) times, want once each", m, s)
	}
	if got := d.Telemetry.Counter(telemetry.StreamErrorResults); got != 2 {
		t.Errorf("stream_error_results = %d, want 2", got)
	}
}

// TestStreamKeepsPartialVerdict: with one in-process shard dead, a
// streamed target resolves to the same degraded verdict the detector
// returns directly — the *shard.PartialError and the surviving shards'
// result together, never the error alone.
func TestStreamKeepsPartialVerdict(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	d.Shards = 2
	_, _, bbs := fixtures(t)
	faultinject.Enable(faultinject.ShardScan,
		faultinject.Match("1", faultinject.Error(errors.New("shard down"))))

	want, werr := d.ClassifyBBSCtx(context.Background(), bbs)
	var pe *shard.PartialError
	if !errors.As(werr, &pe) {
		t.Fatalf("direct classification: err = %v, want a *shard.PartialError", werr)
	}
	in := make(chan Target, 1)
	in <- Target{ID: "t", BBS: bbs}
	close(in)
	results := drain(Classify(context.Background(), d, in, Config{}))
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if !errors.As(r.Err, &pe) {
		t.Fatalf("stream err = %v, want a *shard.PartialError", r.Err)
	}
	if !reflect.DeepEqual(r.Verdict, want) {
		t.Errorf("streamed partial verdict diverged\n got %+v\nwant %+v", r.Verdict, want)
	}
	if r.Verdict.Predicted == "" || r.Verdict.Best.Name == "" || len(r.Verdict.Matches) == 0 {
		t.Errorf("streamed partial verdict is empty: %+v", r.Verdict)
	}
}
