// Package retry is the bounded-retry policy of the one step in a
// classification that can fail transiently: the shard coordinator
// re-sending a remote-shard RPC after a network failure
// (detect.Detector.ShardRetry, the facade's RetryPolicy). Everything
// above the RPC is deterministic, so nothing above the shard layer
// retries. The policy is exponential backoff with full jitter, a
// max-backoff cap, context-aware sleeps, and a caller-supplied
// transience test so permanent failures (cancellation, deadline
// expiry) are never retried.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Policy describes bounded retries with exponential backoff. The zero
// value never retries.
type Policy struct {
	// Attempts is the number of retries after the first failure; 0
	// disables retrying.
	Attempts int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it (capped by MaxBackoff). 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth: no single sleep exceeds
	// it. 0 applies the default cap of 64×Backoff, which also guards the
	// doubling against shift overflow on large attempt counts.
	MaxBackoff time.Duration
	// Jitter randomizes each sleep to a uniform draw from (0, d] where d
	// is the capped exponential delay ("full jitter"). Without it, a
	// fleet of clients that failed together retries in lockstep and
	// re-spikes the very backend they knocked over; with it the retry
	// wave spreads across the whole backoff window.
	Jitter bool
}

// defaultCapFactor bounds the exponential growth when MaxBackoff is
// unset: Backoff << 6. Beyond that the doubling would mostly be
// measuring how long the caller's context takes to expire.
const defaultCapFactor = 6

// randFloat is the jitter source, swappable by tests for determinism.
// The shared top-level source is fine here: jitter quality needs
// independence, not reproducibility, and retries are never hot enough
// for its lock to matter.
var randFloat = rand.Float64

// delay returns the sleep before retry number attempt (0-based): the
// doubled-and-capped exponential backoff, jittered when configured.
func (p Policy) delay(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	cap := p.MaxBackoff
	if cap <= 0 {
		cap = p.Backoff << defaultCapFactor
	}
	d := cap
	// Guard the shift: Backoff<<attempt overflows time.Duration (int64)
	// once attempt is large enough, so only shift while the result can
	// still be below the cap.
	if attempt < 63 && p.Backoff<<attempt > 0 && p.Backoff<<attempt < cap {
		d = p.Backoff << attempt
	}
	if p.Jitter {
		// Full jitter over (0, d]: the +1ns floor keeps a jittered policy
		// from collapsing to an unthrottled hot loop on tiny backoffs.
		d = time.Duration(randFloat()*float64(d)) + 1
	}
	return d
}

// Do runs op, retrying up to p.Attempts times while op's error passes
// retryable (required: only the caller knows which of its failures are
// permanent) and ctx stays alive. onRetry, when non-nil, is called
// before each retry with the 1-based retry number and the error being
// retried (the telemetry hook). Do returns nil on the first success,
// otherwise the last error.
func (p Policy) Do(ctx context.Context, retryable func(error) bool, onRetry func(n int, err error), op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt >= p.Attempts || !retryable(err) {
			return err
		}
		if onRetry != nil {
			onRetry(attempt+1, err)
		}
		if d := p.delay(attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return err
			case <-t.C:
			}
		} else if cerr := ctx.Err(); cerr != nil {
			return err
		}
	}
}
