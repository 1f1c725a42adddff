// Package vcache is the verdict result cache: a bounded LRU that
// memoizes whole repository-scan outcomes. SCAGuard's workload is
// inherently repetitive — the evaluation re-scores 1,000 mutated
// variants per family, a deployment sees the same binaries again and
// again — and a repeated target's scan is pure given the repository
// contents and the scan semantics, so the entire match list can be
// reused instead of recomputed.
//
// It is the detector's memo (detect.Detector.ResultCache), the one
// verdict cache in the stack. A cache entry is keyed by Key: the
// target's CST-BBS content hash, the repository version that produced
// the result, and the scan.Semantics value (pruning, index mode, DTW
// window, term weights). Any repository mutation bumps the version, so
// stale results are unreachable by construction — no explicit
// invalidation path exists or is needed. See docs/ROBUSTNESS.md for the
// coherence argument, including why pruned results are safe to reuse.
//
// Concurrent identical lookups collapse onto one computation
// (singleflight): a thundering herd of the same binary costs one scan,
// and every waiter gets its own copy of the result. Errors are never
// cached, and the compute callback decides per-result whether the
// outcome is cacheable at all — partial results from degraded sharded
// scans are returned to their caller but never stored.
//
// A nil *Cache is the disabled state: Do runs the computation
// directly, so call sites need no branching (the same nil-is-off
// convention as telemetry.Collector).
package vcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

// Key identifies one memoized scan outcome. All fields participate in
// equality, so two lookups share an entry only when the target content,
// the repository state and the scan semantics all agree.
type Key struct {
	// Target is the CST-BBS content hash (TargetHash) of the scanned
	// model. The model's Name is deliberately excluded: scans never read
	// it, so renamed-but-identical binaries share an entry.
	Target string
	// Version is the repository version the result was computed against
	// (Repository.Add bumps it, invalidating every older entry).
	Version uint64
	// Semantics is the scan semantics (pruning, the repository-index
	// mode, the similarity options), in the canonical form
	// scan.Config.Semantics builds: each changes which entries a scan
	// skips or how it scores them, so results under different semantics
	// must never alias, while configurations that scan identically
	// share entries.
	Semantics scan.Semantics
}

// Compute produces the positional match list for a missing key.
// Pruned entries stay pruned: a cached pruned result is one valid
// outcome of a pruned scan, and exact-mode results are bit-identical by
// construction. cacheable reports whether the result may be stored —
// return false for outcomes that must not be reused (partial results of
// a degraded sharded scan). Errors are never cached regardless of
// cacheable.
type Compute func() (ms []scan.Match, cacheable bool, err error)

// flight is one in-progress computation other lookups can wait on.
type flight struct {
	done chan struct{}
	ms   []scan.Match
	err  error
}

// entry is one LRU slot.
type entry struct {
	key Key
	ms  []scan.Match
}

// Cache is the bounded LRU + singleflight store. All methods are safe
// for concurrent use; all methods on a nil *Cache degrade to
// pass-through computation.
type Cache struct {
	cap int
	tel *telemetry.Collector

	mu      sync.Mutex
	lru     *list.List // front = most recently used; values are *entry
	items   map[Key]*list.Element
	flights map[Key]*flight
}

// New returns a cache bounded to capacity entries, instrumented through
// tel (nil disables instrumentation). A capacity <= 0 returns nil — the
// disabled cache.
func New(capacity int, tel *telemetry.Collector) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		cap:     capacity,
		tel:     tel,
		lru:     list.New(),
		items:   make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
	}
}

// Do returns the memoized result for key, computing it with compute on
// a miss. Concurrent calls for the same key collapse: one runs compute,
// the rest wait and share its result. hit reports whether the result
// was served from memory (a cache hit or a collapsed wait) rather than
// computed by this call. Every return hands the caller its own copy of
// the match slice.
//
// The vcache.lookup failpoint fires before the lookup; an injected
// error bypasses the cache for this call (counted as a miss) — the scan
// still runs and the classification still succeeds.
func (c *Cache) Do(ctx context.Context, key Key, compute Compute) ([]scan.Match, bool, error) {
	if c == nil {
		ms, _, err := compute()
		return ms, false, err
	}
	if ferr := faultinject.Fire(faultinject.VCacheLookup, key.Target); ferr != nil {
		c.tel.Inc(telemetry.VCacheMisses)
		ms, _, err := compute()
		return ms, false, err
	}
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.lru.MoveToFront(el)
			ms := scan.CloneMatches(el.Value.(*entry).ms)
			c.mu.Unlock()
			c.tel.Inc(telemetry.VCacheHits)
			return ms, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, false, ctx.Err()
			case <-f.done:
			}
			if f.err == nil {
				c.tel.Inc(telemetry.VCacheCollapsed)
				return scan.CloneMatches(f.ms), true, nil
			}
			// The leader failed (its context died, a shard fault...);
			// its error may not apply to this caller, so loop and
			// compute independently instead of inheriting it.
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		c.tel.Inc(telemetry.VCacheMisses)
		ms, cacheable, err := compute()
		f.ms, f.err = ms, err
		c.mu.Lock()
		delete(c.flights, key)
		if err == nil && cacheable {
			c.storeLocked(key, scan.CloneMatches(ms))
		}
		c.mu.Unlock()
		close(f.done)
		return ms, false, err
	}
}

// storeLocked inserts (or refreshes) an entry and evicts from the LRU
// tail past capacity. Caller holds c.mu.
func (c *Cache) storeLocked(key Key, ms []scan.Match) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).ms = ms
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&entry{key: key, ms: ms})
	for len(c.items) > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.tel.Inc(telemetry.VCacheEvictions)
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Cap returns the capacity bound (0 when disabled).
func (c *Cache) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// TelemetryGauges adapts the cache's size to a telemetry gauge source;
// register it under a "vcache" name so snapshots carry the live entry
// count next to the hit/miss/eviction counters.
func (c *Cache) TelemetryGauges() map[string]uint64 {
	if c == nil {
		return nil
	}
	return map[string]uint64{
		"entries":  uint64(c.Len()),
		"capacity": uint64(c.cap),
	}
}

// TargetHash fingerprints the scan-relevant content of a CST-BBS: the
// timer-read count and, per CST, the block leader, the before/after
// cache states, the normalized instruction sequence, the first-execution
// cycle and the HPC value. The Name is excluded — no scan reads it. Two
// models hash equal iff every field a comparison can observe is equal,
// so a hash hit reuses a result the scan would have reproduced.
func TargetHash(bbs *model.CSTBBS) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(bbs.TimerReads)
	u64(uint64(len(bbs.Seq)))
	for _, c := range bbs.Seq {
		u64(c.Leader)
		f64(c.Before.AO)
		f64(c.Before.IO)
		f64(c.After.AO)
		f64(c.After.IO)
		u64(c.FirstCycle)
		u64(c.HPCValue)
		u64(uint64(len(c.NormInsns)))
		for _, insn := range c.NormInsns {
			str(insn)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
