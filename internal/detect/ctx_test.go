package detect

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/panicsafe"
	"repro/internal/telemetry"
)

// TestClassifyCtxBackgroundMatchesClassify: the ctx plumbing must not
// change verdicts on the background fast path.
func TestClassifyCtxBackgroundMatchesClassify(t *testing.T) {
	d := NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	want, _, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := d.ClassifyCtx(context.Background(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ClassifyCtx = %+v, want %+v", got, want)
	}
}

func TestClassifyCtxCancelled(t *testing.T) {
	d := NewDetector(repo(t))
	d.Telemetry = telemetry.NewCollector()
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := d.ClassifyCtx(ctx, poc.Program, poc.Victim); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := d.Telemetry.Counter(telemetry.DetectCancellations); got != 1 {
		t.Errorf("detect_cancellations = %d, want 1", got)
	}
}

// TestClassifyCtxDetectorTimeout: the per-classification deadline from
// Detector.Timeout expires the call on its own.
func TestClassifyCtxDetectorTimeout(t *testing.T) {
	d := NewDetector(repo(t))
	d.Telemetry = telemetry.NewCollector()
	d.Timeout = time.Nanosecond
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	if _, _, err := d.ClassifyCtx(context.Background(), poc.Program, poc.Victim); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := d.Telemetry.Counter(telemetry.DetectCancellations); got == 0 {
		t.Error("detect_cancellations not counted")
	}
}

// batchTargets repeats the repository's own models as n targets; they
// all pass gating (attack models read timers and exceed MinModelLen).
func batchTargets(t *testing.T, n int) []*model.CSTBBS {
	t.Helper()
	r := repo(t)
	out := make([]*model.CSTBBS, n)
	for i := range out {
		out[i] = r.Entries[i%len(r.Entries)].BBS
	}
	return out
}

// TestClassifyBBSCtxCancelPrompt cancels one target's slowed scan of a
// large repository mid-way and asserts the 100ms return budget of the
// robustness contract.
func TestClassifyBBSCtxCancelPrompt(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(faultinject.ScanWorker, faultinject.Sleep(time.Millisecond))
	large := &Repository{}
	for i, bbs := range batchTargets(t, 512) { // ≥1ms per entry on 2 workers: long runway
		large.Add(fmt.Sprintf("entry-%03d", i), attacks.FamilyFR, bbs)
	}
	d := NewDetector(large)
	d.Telemetry = telemetry.NewCollector()
	d.Scan.Workers = 2
	target := batchTargets(t, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.ClassifyBBSCtx(ctx, target)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if dur := time.Since(start); dur > 100*time.Millisecond {
			t.Fatalf("cancel-to-return took %v, want < 100ms", dur)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("classification did not return after cancel")
	}
	if got := d.Telemetry.Counter(telemetry.DetectCancellations); got != 1 {
		t.Errorf("detect_cancellations = %d, want 1", got)
	}
}

// TestClassifyBBSRepanics: the non-ctx API keeps its loud-crash
// contract when a worker panics.
func TestClassifyBBSRepanics(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(faultinject.ScanWorker, faultinject.OnCall(1, faultinject.Panic("scan crash")))
	d := NewDetector(repo(t))
	defer func() {
		if r := recover(); r != "scan crash" {
			t.Errorf("recovered %v, want scan crash", r)
		}
	}()
	d.ClassifyBBS(batchTargets(t, 1)[0])
	t.Error("ClassifyBBS did not re-panic")
}

// TestClassifyBBSCtxPanicIsErrorNotCrash: the ctx API converts the same
// worker panic into a *panicsafe.PanicError, counted once — by the scan
// worker that recovered it, not again by the detector.
func TestClassifyBBSCtxPanicIsErrorNotCrash(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(faultinject.ScanWorker, faultinject.OnCall(1, faultinject.Panic("scored crash")))
	d := NewDetector(repo(t))
	d.Telemetry = telemetry.NewCollector()
	_, err := d.ClassifyBBSCtx(context.Background(), batchTargets(t, 1)[0])
	pe, ok := panicsafe.AsPanic(err)
	if !ok {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "scored crash" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if got := d.Telemetry.Counter(telemetry.PanicsRecovered); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

// TestClassifyCtxModelPanicIsError: a panic while modeling the target —
// above the scan engine's own recovery — comes back from ClassifyCtx as
// the target's *panicsafe.PanicError, counted once, while the non-ctx
// Classify keeps its crash-loudly contract on the same program.
func TestClassifyCtxModelPanicIsError(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	poc := attacks.FlushReloadMastik(attacks.DefaultParams())
	d := NewDetector(repo(t))
	d.Telemetry = telemetry.NewCollector()
	faultinject.Enable(faultinject.ModelBuild,
		faultinject.Match(poc.Program.Name, faultinject.Panic("model crash")))

	_, m, err := d.ClassifyCtx(context.Background(), poc.Program, poc.Victim)
	var pe *panicsafe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *panicsafe.PanicError", err)
	}
	if pe.Value != "model crash" || len(pe.Stack) == 0 {
		t.Errorf("panic value = %v, stack %d bytes", pe.Value, len(pe.Stack))
	}
	if m != nil {
		t.Errorf("model = %v, want nil after a modeling panic", m)
	}
	if got := d.Telemetry.Counter(telemetry.PanicsRecovered); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}

	defer func() {
		if r := recover(); r != "model crash" {
			t.Errorf("Classify recovered %v, want the model crash", r)
		}
	}()
	_, _, _ = d.Classify(poc.Program, poc.Victim)
	t.Error("Classify did not panic")
}
