// Package breaker implements the per-backend circuit breaker that
// keeps a replicated shard fleet from re-paying timeouts against a
// known-dead backend. A scan that has just watched a replica fail
// learns something every future scan should benefit from: after a few
// consecutive failures the breaker opens and scans skip straight to
// the next replica, instead of each independently rediscovering the
// corpse at full timeout price. The breaker is deliberately
// three-state and time-driven so a recovered backend re-admits itself
// without operator action:
//
//   - Closed: calls flow; consecutive failures are counted, and at
//     Settings.Threshold the breaker opens.
//   - Open: calls are refused (Allow reports false) until the open
//     interval elapses. Each re-open doubles the interval up to
//     Settings.MaxOpenInterval, so a flapping backend — alive just
//     long enough to pass one probe, then dead again — is quarantined
//     for progressively longer instead of dragging every scan through
//     its next collapse.
//   - Half-open: the first Allow after the interval admits exactly one
//     probe attempt (a live scan or the background Prober); its
//     outcome decides between re-closing and re-opening.
//
// The Prober (prober.go) is the background half of re-admission: it
// periodically probes non-closed backends with their health check
// (RemoteShard.Check against /healthz), so recovery is discovered
// within one probe interval even when no scan happens to reach the
// backend. See docs/ROBUSTNESS.md for the failure-mode matrix this
// package underpins.
package breaker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// State is a breaker's position in the closed/open/half-open cycle.
type State int32

const (
	// Closed admits every call (the healthy steady state).
	Closed State = iota
	// Open refuses calls until the open interval elapses.
	Open
	// HalfOpen has admitted one probe and awaits its outcome.
	HalfOpen
)

// String returns the state's telemetry/report name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ErrOpen is the refusal a caller gets from an open breaker, wrapped
// with the backend's name. It is transient by nature — the breaker
// will half-open by itself — and callers treat it like any other
// backend failure: move on to the next replica.
var ErrOpen = errors.New("breaker: circuit open")

// Settings tunes a breaker. The zero value selects the defaults; the
// struct is plain comparable data so configuration layers (the
// detector's engine key) can use == on it.
type Settings struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (default 3). Negative disables the breaker entirely:
	// Allow always admits and Report never trips.
	Threshold int
	// OpenInterval is how long the breaker stays open after the first
	// trip before admitting a probe (default 1s). Each re-open doubles
	// the previous interval.
	OpenInterval time.Duration
	// MaxOpenInterval caps the doubling (default 30s): even a
	// chronically flapping backend is re-probed this often.
	MaxOpenInterval time.Duration
	// ResetAfter is the number of consecutive successes after a
	// re-close that restores the open interval to OpenInterval (default
	// Threshold). Until then a new trip re-opens at the grown interval
	// — the flapper quarantine.
	ResetAfter int
}

// WithDefaults fills zero fields with the default tuning.
func (s Settings) WithDefaults() Settings {
	if s.Threshold == 0 {
		s.Threshold = 3
	}
	if s.OpenInterval <= 0 {
		s.OpenInterval = time.Second
	}
	if s.MaxOpenInterval <= 0 {
		s.MaxOpenInterval = 30 * time.Second
	}
	if s.ResetAfter <= 0 {
		s.ResetAfter = s.Threshold
	}
	return s
}

// Disabled reports whether the settings turn the breaker off.
func (s Settings) Disabled() bool { return s.Threshold < 0 }

// Breaker is one backend's circuit breaker. All methods are safe for
// concurrent use. The zero Breaker is not usable; construct with New.
type Breaker struct {
	name string
	set  Settings
	tel  *telemetry.Collector
	now  func() time.Time // time.Now; tests substitute a fake clock

	mu        sync.Mutex
	state     State
	failures  int           // consecutive failures while closed
	successes int           // consecutive successes since last close
	interval  time.Duration // open interval the NEXT trip will use
	openFor   time.Duration // duration of the current open period
	openedAt  time.Time     // when the breaker last opened
	opens     uint64        // cumulative closed/half-open → open trips
}

// New builds a breaker for the named backend. set is applied with
// defaults; tel (nil-is-off) receives the breaker_opens/half_opens/
// closes counters.
func New(name string, set Settings, tel *telemetry.Collector) *Breaker {
	set = set.WithDefaults()
	return &Breaker{name: name, set: set, tel: tel, now: time.Now, interval: set.OpenInterval}
}

// Name returns the backend identity the breaker guards.
func (b *Breaker) Name() string { return b.name }

// State returns the breaker's current position, advancing an open
// breaker whose interval has elapsed to half-open is NOT done here:
// only Allow performs that transition, so State is a pure read.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns the cumulative number of times the breaker tripped
// open — the per-backend figure behind the breaker_opens counter.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Allow reports whether a call to the backend may proceed. Closed
// always admits. Open admits nothing until the open interval elapses;
// the first Allow after that flips to half-open and admits exactly one
// probe, refusing concurrent callers until the probe reports. Every
// admitted call must be followed by exactly one Report.
func (b *Breaker) Allow() bool {
	if b.set.Disabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) < b.openFor {
			return false
		}
		b.state = HalfOpen
		b.tel.Inc(telemetry.BreakerHalfOpens)
		return true
	default: // HalfOpen: the probe slot is taken.
		return false
	}
}

// Report records the outcome of an admitted call: a nil error is a
// success, anything else a failure. Callers must not report outcomes
// caused by their own context dying — that says nothing about the
// backend.
func (b *Breaker) Report(err error) {
	if b.set.Disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.onSuccess()
	} else {
		b.onFailure()
	}
}

// onSuccess handles a successful call. Caller holds b.mu.
func (b *Breaker) onSuccess() {
	switch b.state {
	case HalfOpen:
		b.state = Closed
		b.failures = 0
		b.successes = 0
		b.tel.Inc(telemetry.BreakerCloses)
	case Closed:
		b.failures = 0
		if b.successes < b.set.ResetAfter {
			b.successes++
			if b.successes >= b.set.ResetAfter {
				// The backend has proven itself: forgive the flapping
				// history and restore the base quarantine interval.
				b.interval = b.set.OpenInterval
			}
		}
	}
}

// onFailure handles a failed call. Caller holds b.mu.
func (b *Breaker) onFailure() {
	switch b.state {
	case HalfOpen:
		// Failed probe: back to open for the (already grown) interval.
		b.trip()
	case Closed:
		b.successes = 0
		b.failures++
		if b.failures >= b.set.Threshold {
			b.trip()
		}
	}
}

// trip moves the breaker to open. This open period lasts the current
// interval; the interval then doubles (capped) for any subsequent
// trip, and only a sustained success streak (Settings.ResetAfter)
// restores it to the base — the flapper quarantine. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.openFor = b.interval
	b.failures = 0
	b.successes = 0
	b.opens++
	b.tel.Inc(telemetry.BreakerOpens)
	if next := b.interval * 2; next <= b.set.MaxOpenInterval {
		b.interval = next
	} else {
		b.interval = b.set.MaxOpenInterval
	}
}

// ReleaseProbe hands an admitted half-open probe slot back without an
// outcome: the breaker returns to open with its timing untouched, so
// the next Allow can immediately re-admit a probe. Callers use this
// when the probe was aborted for reasons unrelated to the backend
// (prober shutdown, caller cancellation).
func (b *Breaker) ReleaseProbe() {
	if b.set.Disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.state = Open
	}
}

// Deny returns the error an open breaker hands the caller in place of
// an attempt.
func (b *Breaker) Deny() error {
	return fmt.Errorf("%s: %w", b.name, ErrOpen)
}
