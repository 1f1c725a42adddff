package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// always treats every error as transient, leaving the stop decision to
// Attempts and the context.
func always(error) bool { return true }

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	calls, retries := 0, 0
	err := Policy{Attempts: 3}.Do(context.Background(), always,
		func(n int, err error) { retries++ },
		func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 || retries != 2 {
		t.Errorf("calls = %d retries = %d, want 3/2", calls, retries)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	sentinel := errors.New("still broken")
	calls := 0
	err := Policy{Attempts: 2}.Do(context.Background(), always, nil, func() error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 { // first try + 2 retries
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestDoZeroPolicyNeverRetries(t *testing.T) {
	calls := 0
	err := Policy{}.Do(context.Background(), always, nil, func() error {
		calls++
		return errors.New("boom")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err = %v calls = %d, want one failing call", err, calls)
	}
}

func TestDoContextErrorsNotRetried(t *testing.T) {
	// A dead context ends the loop even when the caller's test would
	// retry, with or without a backoff sleep in between.
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for _, ctx := range []context.Context{cancelled, expired} {
		for _, backoff := range []time.Duration{0, time.Millisecond} {
			calls := 0
			err := Policy{Attempts: 5, Backoff: backoff}.Do(ctx, always, nil, func() error {
				calls++
				return ctx.Err()
			})
			if !errors.Is(err, ctx.Err()) || calls != 1 {
				t.Errorf("%v backoff %v: err = %v calls = %d, want no retries", ctx.Err(), backoff, err, calls)
			}
		}
	}
}

func TestDoStopsBackoffOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := Policy{Attempts: 3, Backoff: time.Hour}.Do(ctx, always, nil, func() error {
		return errors.New("transient")
	})
	if err == nil {
		t.Fatal("want error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("backoff ignored cancelled context")
	}
}

func TestDelayDoublesAndCaps(t *testing.T) {
	p := Policy{Attempts: 10, Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for attempt, w := range want {
		if d := p.delay(attempt); d != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", attempt, d, w*time.Millisecond)
		}
	}
}

func TestDelayDefaultCap(t *testing.T) {
	p := Policy{Backoff: time.Millisecond}
	if d := p.delay(20); d != time.Millisecond<<defaultCapFactor {
		t.Errorf("delay(20) = %v, want default cap %v", d, time.Millisecond<<defaultCapFactor)
	}
}

func TestDelaySurvivesHugeAttemptCounts(t *testing.T) {
	// Backoff << attempt overflows int64 well before attempt 100; the
	// delay must stay pinned at the cap instead of going negative or
	// zero.
	p := Policy{Backoff: time.Second, MaxBackoff: 8 * time.Second}
	for _, attempt := range []int{40, 62, 63, 64, 100, 1 << 20} {
		if d := p.delay(attempt); d != 8*time.Second {
			t.Errorf("delay(%d) = %v, want cap 8s", attempt, d)
		}
	}
}

func TestDelayFullJitterStaysInWindow(t *testing.T) {
	defer func(f func() float64) { randFloat = f }(randFloat)
	for _, r := range []float64{0, 0.25, 0.5, 0.999} {
		randFloat = func() float64 { return r }
		p := Policy{Backoff: 100 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Jitter: true}
		d := p.delay(0)
		if d <= 0 || d > 100*time.Millisecond+1 {
			t.Errorf("jittered delay(r=%v) = %v, want within (0, 100ms]", r, d)
		}
		if want := time.Duration(r*float64(100*time.Millisecond)) + 1; d != want {
			t.Errorf("jittered delay(r=%v) = %v, want %v", r, d, want)
		}
	}
}

func TestDelayZeroBackoffStaysImmediate(t *testing.T) {
	// The zero policy — and any policy without a Backoff — must not
	// invent a sleep, jittered or not.
	for _, p := range []Policy{{}, {Attempts: 3}, {Attempts: 3, Jitter: true}, {Attempts: 3, MaxBackoff: time.Second}} {
		if d := p.delay(0); d != 0 {
			t.Errorf("delay(%+v) = %v, want 0", p, d)
		}
	}
}

func TestDoCustomRetryable(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	err := Policy{Attempts: 5}.Do(context.Background(),
		func(err error) bool { return !errors.Is(err, permanent) }, nil,
		func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Errorf("err = %v calls = %d, want immediate permanent failure", err, calls)
	}
}
