package scan

import (
	"math"
	"sync"
	"sync/atomic"
)

// Cutoff is the shared best-distance cell behind early abandoning: the
// lowest exact distance any comparison has produced so far, stored as
// atomic float bits. Within one engine scan it is the per-target "best
// so far" that every worker prunes against; a shard coordinator
// (internal/shard) shares one across its shards and forwards each
// improvement to the remote shard servers — a shard that finds a
// strong match tightens the bound every other shard prunes with, so
// early abandoning works across shard boundaries, not just within one
// engine.
//
// A Cutoff only ever decreases. All methods are safe for concurrent
// use; the zero value is not ready — use NewCutoff (best starts at
// +Inf, i.e. "no bound yet").
type Cutoff struct {
	bits atomic.Uint64

	mu sync.Mutex
	ch chan struct{} // closed and replaced on every improvement
}

// NewCutoff returns a cutoff with no bound (+Inf).
func NewCutoff() *Cutoff {
	c := &Cutoff{ch: make(chan struct{})}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Best returns the current best (lowest) distance, +Inf when no exact
// comparison has finished yet.
func (c *Cutoff) Best() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Update lowers the best distance to d if d improves on it, waking any
// Changed waiters. It reports whether d was an improvement.
func (c *Cutoff) Update(d float64) bool {
	for {
		old := c.bits.Load()
		if math.Float64frombits(old) <= d {
			return false
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(d)) {
			c.mu.Lock()
			close(c.ch)
			c.ch = make(chan struct{})
			c.mu.Unlock()
			return true
		}
	}
}

// Changed returns a channel closed at the next improvement. Broadcast
// forwarders (the remote-shard client) loop on it: read Changed, wait,
// read Best, push. A fresh channel is installed on every update, so
// each returned channel fires exactly once.
func (c *Cutoff) Changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ch
}
