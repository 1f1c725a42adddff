package breaker

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestBreaker(set Settings) (*Breaker, *fakeClock, *telemetry.Collector) {
	tel := telemetry.NewCollector()
	b := New("b", set, tel)
	clk := newFakeClock()
	b.now = clk.now // drive the open interval with a fake clock
	return b, clk, tel
}

var errBoom = errors.New("boom")

func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _, tel := newTestBreaker(Settings{Threshold: 3, OpenInterval: time.Second})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: breaker closed early", i)
		}
		b.Report(errBoom)
		if b.State() != Closed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, b.State())
		}
	}
	b.Report(errBoom)
	if b.State() != Open {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call")
	}
	if got := tel.Counter(telemetry.BreakerOpens); got != 1 {
		t.Fatalf("breaker_opens = %d, want 1", got)
	}
	if b.Opens() != 1 {
		t.Fatalf("Opens() = %d, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _, _ := newTestBreaker(Settings{Threshold: 2, OpenInterval: time.Second})
	// fail, succeed, fail, succeed... must never open.
	for i := 0; i < 10; i++ {
		b.Report(errBoom)
		b.Report(nil)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed (non-consecutive failures)", b.State())
	}
}

func TestBreakerHalfOpenProbeAndClose(t *testing.T) {
	b, clk, tel := newTestBreaker(Settings{Threshold: 1, OpenInterval: time.Second})
	b.Report(errBoom)
	if b.State() != Open || b.Allow() {
		t.Fatal("breaker should be open and refusing")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("elapsed open interval should admit a probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller stole the half-open probe slot")
	}
	b.Report(nil)
	if b.State() != Closed || !b.Allow() {
		t.Fatal("successful probe should re-close the breaker")
	}
	if got := tel.Counter(telemetry.BreakerHalfOpens); got != 1 {
		t.Fatalf("breaker_half_opens = %d, want 1", got)
	}
	if got := tel.Counter(telemetry.BreakerCloses); got != 1 {
		t.Fatalf("breaker_closes = %d, want 1", got)
	}
}

func TestBreakerOpenIntervalDoublesAndCaps(t *testing.T) {
	b, clk, _ := newTestBreaker(Settings{Threshold: 1, OpenInterval: time.Second, MaxOpenInterval: 4 * time.Second})
	// Trip, fail every probe: open periods must run 1s, 2s, 4s, 4s.
	b.Report(errBoom)
	for _, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second} {
		if b.Allow() {
			t.Fatalf("open breaker admitted before %v elapsed", want)
		}
		clk.advance(want - time.Millisecond)
		if b.Allow() {
			t.Fatalf("open breaker admitted %v early", time.Millisecond)
		}
		clk.advance(time.Millisecond)
		if !b.Allow() {
			t.Fatalf("breaker refused probe after %v", want)
		}
		b.Report(errBoom) // failed probe: re-open, interval grows
	}
}

func TestBreakerFlapperQuarantineAndReset(t *testing.T) {
	set := Settings{Threshold: 1, OpenInterval: time.Second, MaxOpenInterval: time.Minute, ResetAfter: 2}
	b, clk, _ := newTestBreaker(set)

	// First trip: 1s quarantine; probe succeeds, breaker closes.
	b.Report(errBoom)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Report(nil)

	// Flap: immediate second trip must quarantine for 2s, not 1s —
	// one good probe does not forgive the history.
	b.Report(errBoom)
	clk.advance(time.Second)
	if b.Allow() {
		t.Fatal("flapping backend re-admitted at base interval")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after grown interval")
	}
	b.Report(nil) // close again

	// Two consecutive successes (ResetAfter) restore the base interval.
	b.Report(nil)
	b.Report(nil)
	b.Report(errBoom)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("sustained health should have reset the open interval to base")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b, _, tel := newTestBreaker(Settings{Threshold: -1})
	for i := 0; i < 100; i++ {
		if !b.Allow() {
			t.Fatal("disabled breaker refused a call")
		}
		b.Report(errBoom)
	}
	if b.State() != Closed {
		t.Fatalf("disabled breaker state = %v, want closed", b.State())
	}
	if got := tel.Counter(telemetry.BreakerOpens); got != 0 {
		t.Fatalf("disabled breaker tripped %d times", got)
	}
}

func TestBreakerReleaseProbe(t *testing.T) {
	b, clk, _ := newTestBreaker(Settings{Threshold: 1, OpenInterval: time.Second})
	b.Report(errBoom)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.ReleaseProbe()
	if b.State() != Open {
		t.Fatalf("state after release = %v, want open", b.State())
	}
	// The slot must be immediately re-admittable (timing untouched).
	if !b.Allow() {
		t.Fatal("released probe slot not re-admitted")
	}
	b.Report(nil)
	if b.State() != Closed {
		t.Fatal("probe after release did not close the breaker")
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b, clk, _ := newTestBreaker(Settings{Threshold: 3, OpenInterval: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b.Allow() {
					if i%3 == 0 {
						b.Report(errBoom)
					} else {
						b.Report(nil)
					}
				}
				if i%50 == 0 {
					clk.advance(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	_ = b.State() // must not race
}

func TestSettingsDefaults(t *testing.T) {
	s := Settings{}.WithDefaults()
	if s.Threshold != 3 || s.OpenInterval != time.Second || s.MaxOpenInterval != 30*time.Second || s.ResetAfter != 3 {
		t.Fatalf("defaults = %+v", s)
	}
	if !(Settings{Threshold: -1}).Disabled() || (Settings{}).Disabled() {
		t.Fatal("Disabled() wrong")
	}
}
