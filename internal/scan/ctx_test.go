package scan

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/panicsafe"
	"repro/internal/telemetry"
)

// testModels draws a deterministic corpus of n non-empty models from
// the shared random-BBS vocabulary.
func testModels(t *testing.T, n int) []*model.CSTBBS {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)*31 + 7))
	out := make([]*model.CSTBBS, n)
	for i := range out {
		for {
			if b := randomBBS(rng, 8); b.Len() > 0 {
				out[i] = b
				break
			}
		}
	}
	return out
}

func bestOf(ms []Match) Match {
	best := ms[0]
	for _, m := range ms[1:] {
		if m.Score > best.Score || (m.Score == best.Score && m.Index < best.Index) {
			best = m
		}
	}
	return best
}

func TestScanCtxCancelledBeforeStart(t *testing.T) {
	e := New(testModels(t, 4), Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ScanCtx(ctx, testModels(t, 1)[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// pruneModes runs a test body over both flat scan paths: exact
// (atomic claiming) and pruned (strided per-worker slices).
func pruneModes(t *testing.T, body func(t *testing.T, prune bool)) {
	for _, prune := range []bool{false, true} {
		name := "exact"
		if prune {
			name = "prune"
		}
		t.Run(name, func(t *testing.T) { body(t, prune) })
	}
}

// TestScanCtxCancelPrompt cancels one target's scan of a large
// repository mid-way, with slowed workers, and asserts the call returns
// well within the 100ms budget.
func TestScanCtxCancelPrompt(t *testing.T) {
	pruneModes(t, func(t *testing.T, prune bool) {
		t.Cleanup(faultinject.Reset)
		faultinject.Enable(faultinject.ScanWorker, faultinject.Sleep(time.Millisecond))
		e := New(testModels(t, 512), Config{Workers: 2, Prune: prune}) // ≥1ms per entry on 2 workers: long runway
		target := testModels(t, 1)[0]
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			ms  []Match
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			ms, err := e.ScanCtx(ctx, target)
			done <- outcome{ms, err}
		}()
		time.Sleep(10 * time.Millisecond) // let workers start claiming
		cancel()
		start := time.Now()
		select {
		case o := <-done:
			if !errors.Is(o.err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", o.err)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Fatalf("cancel-to-return took %v, want < 100ms", d)
			}
			if o.ms != nil {
				t.Errorf("cancelled scan returned %d matches, want nil", len(o.ms))
			}
		case <-time.After(2 * time.Second):
			t.Fatal("scan did not return after cancel")
		}
	})
}

// TestScanWorkerPanicRecovered: a panic while scoring becomes an error
// from the ctx API, counted in telemetry once, and a re-panic from the
// non-ctx API.
func TestScanWorkerPanicRecovered(t *testing.T) {
	pruneModes(t, func(t *testing.T, prune bool) {
		t.Cleanup(faultinject.Reset)
		faultinject.Enable(faultinject.ScanWorker, faultinject.OnCall(3, faultinject.Panic("scan worker crash")))
		tel := telemetry.NewCollector()
		e := New(testModels(t, 8), Config{Workers: 4, Prune: prune, Telemetry: tel})
		ms, err := e.ScanCtx(context.Background(), testModels(t, 1)[0])
		pe, ok := panicsafe.AsPanic(err)
		if !ok {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		if pe.Value != "scan worker crash" {
			t.Errorf("panic value = %v", pe.Value)
		}
		if ms != nil {
			t.Errorf("failed scan returned %d matches, want nil", len(ms))
		}
		if got := tel.Counter(telemetry.PanicsRecovered); got != 1 {
			t.Errorf("panics_recovered = %d, want 1", got)
		}

		faultinject.Reset()
		faultinject.Enable(faultinject.ScanWorker, faultinject.OnCall(1, faultinject.Panic("loud crash")))
		func() {
			defer func() {
				if r := recover(); r != "loud crash" {
					t.Errorf("Scan recovered %v, want loud crash", r)
				}
			}()
			e.Scan(testModels(t, 1)[0])
			t.Error("Scan did not re-panic")
		}()
	})
}

// TestScanCtxOneWorkerCancelAndPanic covers the same contract when the
// calling goroutine is the only worker: a panic stops the scan at the
// failing entry, and a cancel between entries stops it before the next
// one is scored.
func TestScanCtxOneWorkerCancelAndPanic(t *testing.T) {
	pruneModes(t, func(t *testing.T, prune bool) {
		t.Cleanup(faultinject.Reset)
		tel := telemetry.NewCollector()
		e := New(testModels(t, 8), Config{Workers: 1, Prune: prune, Telemetry: tel})
		target := testModels(t, 1)[0]

		var fires atomic.Int64
		count := func(faultinject.Point, string) error { fires.Add(1); return nil }
		faultinject.Enable(faultinject.ScanWorker, faultinject.Chain(count, faultinject.OnCall(2, faultinject.Panic("serial crash"))))
		if _, err := e.ScanCtx(context.Background(), target); !errors.As(err, new(*panicsafe.PanicError)) {
			t.Fatalf("serial panic: err = %v, want *PanicError", err)
		}
		if got := fires.Load(); got != 2 {
			t.Errorf("serial panic: %d entries started, want the scan to stop at entry 2", got)
		}
		if got := tel.Counter(telemetry.PanicsRecovered); got != 1 {
			t.Errorf("panics_recovered = %d, want 1", got)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fires.Store(0)
		faultinject.Enable(faultinject.ScanWorker, faultinject.Chain(count, faultinject.OnCall(3, func(faultinject.Point, string) error {
			cancel()
			return nil
		})))
		if _, err := e.ScanCtx(ctx, target); !errors.Is(err, context.Canceled) {
			t.Fatalf("serial cancel: err = %v, want context.Canceled", err)
		}
		if got := fires.Load(); got != 3 {
			t.Errorf("serial cancel: %d entries started, want the scan to stop after entry 3", got)
		}
	})
}
