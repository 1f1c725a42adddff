// Package vcache is the verdict result cache: a bounded LRU that
// memoizes whole classification outcomes. SCAGuard's workload is
// inherently repetitive — the evaluation re-scores 1,000 mutated
// variants per family, a deployment sees the same binaries again and
// again — and a repeated target's outcome is pure given the repository
// contents and the scan semantics, so it can be reused instead of
// recomputed.
//
// It is the detector's memo (detect.Detector.ResultCache), the one
// verdict cache in the stack. An entry is keyed by Key, which comes in
// two kinds sharing one LRU and one singleflight:
//
//   - A program key (Key.Program) is the digest of a target before
//     modeling (ProgramHash: the program, its victim and the model
//     configuration). A model is a pure function of those three — the
//     simulator is deterministic, and even the Random replacement policy
//     draws from the seed in the configuration — so a hit returns the
//     memoized CST-BBS and its matches without modeling at all.
//   - A model key is the CST-BBS content hash (TargetHash) of a built
//     model. It still catches what the program key cannot: renamed or
//     re-laid-out binaries whose models come out equal.
//
// Both kinds also carry the repository version that produced the result
// and the scan.Semantics value (pruning, index mode, DTW window, term
// weights). Any repository mutation bumps the version, so stale results
// are unreachable by construction — no explicit invalidation path exists
// or is needed. See docs/ROBUSTNESS.md for the coherence argument,
// including why pruned results are safe to reuse.
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
	"errors"
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

// Key identifies one memoized scan outcome. All fields participate in
// equality, so two lookups share an entry only when the target content,
// the repository state and the scan semantics all agree.
type Key struct {
	// Program selects the key kind. When false, Target is the CST-BBS
	// content hash (TargetHash) of the scanned model; the model's Name is
	// deliberately excluded (scans never read it), so renamed-but-identical
	// binaries share an entry. When true, Target is the program digest
	// (ProgramHash) of a target that has not been modeled yet, and the
	// entry holds the model's CST-BBS next to the matches.
	Program bool
	// Target is the content hash the kind names.
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

// Value is one memoized outcome.
type Value struct {
	// BBS is the target's CST-BBS; only program keys store it (a model
	// key's caller already holds the model). It is shared by every hit
	// and must not be modified.
	BBS *model.CSTBBS
	// Matches is the positional match list of the scan, nil when the
	// target never reached one (a program gated out before scanning).
	Matches []scan.Match
}

// clone gives a caller its own copy of the match slice.
func (v Value) clone() Value {
	v.Matches = scan.CloneMatches(v.Matches)
	return v
}

// Compute produces the value for a missing key. Pruned entries stay
// pruned: a cached pruned result is one valid outcome of a pruned scan,
// and exact-mode results are bit-identical by construction. cacheable
// reports whether the result may be stored — return false for outcomes
// that must not be reused (partial results of a degraded sharded scan).
// Errors are never cached regardless of cacheable.
type Compute func() (v Value, cacheable bool, err error)

// errComputePanicked is what waiters see of a leader whose compute
// panicked; like any leader failure, it sends them to compute again.
var errComputePanicked = errors.New("vcache: compute panicked")

// flight is one in-progress computation other lookups can wait on.
type flight struct {
	done chan struct{}
	v    Value
	err  error
}

// entry is one LRU slot.
type entry struct {
	key Key
	v   Value
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

// Do returns the memoized value for key, computing it with compute on
// a miss. Concurrent calls for the same key collapse: one runs compute,
// the rest wait and share its result. hit reports whether the value was
// served from memory (a cache hit or a collapsed wait) rather than
// computed by this call. Every return hands the caller its own copy of
// the match slice.
//
// The vcache.lookup failpoint fires before the lookup; an injected
// error bypasses the cache for this call (counted as a miss) — the
// computation still runs and the classification still succeeds.
func (c *Cache) Do(ctx context.Context, key Key, compute Compute) (Value, bool, error) {
	if c == nil {
		v, _, err := compute()
		return v, false, err
	}
	if ferr := faultinject.Fire(faultinject.VCacheLookup, key.Target); ferr != nil {
		c.tel.Inc(telemetry.VCacheMisses)
		v, _, err := compute()
		return v, false, err
	}
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.lru.MoveToFront(el)
			v := el.Value.(*entry).v.clone()
			c.mu.Unlock()
			c.countServed(key, telemetry.VCacheHits)
			return v, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return Value{}, false, ctx.Err()
			case <-f.done:
			}
			if f.err == nil {
				c.countServed(key, telemetry.VCacheCollapsed)
				return f.v.clone(), true, nil
			}
			// The leader failed (its context died, a shard fault...);
			// its error may not apply to this caller, so loop and
			// compute independently instead of inheriting it.
			continue
		}
		f := &flight{done: make(chan struct{}), err: errComputePanicked}
		c.flights[key] = f
		c.mu.Unlock()

		c.tel.Inc(telemetry.VCacheMisses)
		v, err := c.lead(key, f, compute)
		return v, false, err
	}
}

// lead runs compute as the flight f's leader. The deferred release runs
// even when compute panics, so waiters never block on a dead flight;
// they find f.err still set to errComputePanicked and compute again.
func (c *Cache) lead(key Key, f *flight, compute Compute) (v Value, err error) {
	cacheable := false
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil && cacheable {
			c.storeLocked(key, f.v.clone())
		}
		c.mu.Unlock()
		close(f.done)
	}()
	v, cacheable, err = compute()
	f.v, f.err = v, err
	return v, err
}

// countServed counts a lookup answered from memory under counter, and
// again under vcache_program_hits when a program key spared modeling.
func (c *Cache) countServed(key Key, counter telemetry.Counter) {
	c.tel.Inc(counter)
	if key.Program {
		c.tel.Inc(telemetry.VCacheProgramHits)
	}
}

// storeLocked inserts (or refreshes) an entry and evicts from the LRU
// tail past capacity. Caller holds c.mu.
func (c *Cache) storeLocked(key Key, v Value) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).v = v
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&entry{key: key, v: v})
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

// ProgramHash fingerprints everything model.BuildCtx reads of a target
// before modeling it, for program keys: per program (prog, then victim,
// whose absence is hashed too) the name the model carries, the entry
// point, every instruction's address, size, opcode and operands, and
// every data segment; then the model configuration, all of it except
// the Telemetry collector, which only observes. The instructions'
// evaluation-only Attack marks and the symbolic Labels are excluded —
// modeling never reads them. Modeling is a pure function of these
// inputs (the simulator is deterministic and the Random replacement
// policy draws from the configured Seed), so two targets with equal
// digests model to equal CST-BBSes.
func ProgramHash(prog, victim *isa.Program, cfg model.Config) string {
	bp := digestBufs.Get().(*[]byte)
	b := appendProgram((*bp)[:0], prog)
	b = appendProgram(b, victim)
	b = appendModelConfig(b, cfg)
	sum := sha256.Sum256(b)
	*bp = b
	digestBufs.Put(bp)
	return hex.EncodeToString(sum[:])
}

// digestBufs recycles ProgramHash's encoding buffers.
var digestBufs = sync.Pool{New: func() any { return new([]byte) }}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBytes(b, s []byte) []byte { return append(appendU64(b, uint64(len(s))), s...) }

func appendString(b []byte, s string) []byte { return append(appendU64(b, uint64(len(s))), s...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendProgram(b []byte, p *isa.Program) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = appendString(append(b, 1), p.Name)
	b = appendU64(appendU64(b, p.Entry), uint64(len(p.Insns)))
	for i := range p.Insns {
		in := &p.Insns[i]
		b = append(appendU64(b, in.Addr), in.Size, byte(in.Op))
		for _, op := range [2]isa.Operand{in.Dst, in.Src} {
			b = appendU64(append(b, byte(op.Kind), byte(op.Base), byte(op.Index), op.Scale), uint64(op.Disp))
		}
	}
	b = appendU64(b, uint64(len(p.Data)))
	for _, d := range p.Data {
		b = appendU64(appendU64(appendString(b, d.Name), d.Addr), d.Size)
		b = appendBytes(appendBool(b, d.Shared), d.Init)
	}
	return b
}

func appendCacheConfig(b []byte, c cache.Config) []byte {
	b = appendU64(appendU64(appendString(b, c.Name), uint64(c.Sets)), uint64(c.Ways))
	return appendU64(append(appendU64(b, uint64(c.LineSize)), byte(c.Policy)), uint64(c.Seed))
}

func appendModelConfig(b []byte, c model.Config) []byte {
	e := c.Exec
	for _, cc := range [3]cache.Config{e.Hierarchy.L1D, e.Hierarchy.L1I, e.Hierarchy.LLC} {
		b = appendCacheConfig(b, cc)
	}
	lat := e.Hierarchy.Lat
	for _, v := range [...]uint64{lat.L1Hit, lat.LLCHit, lat.Memory, lat.Flush, lat.FlushMiss,
		e.MaxRetired, uint64(e.Quantum), uint64(e.SpecWindow),
		uint64(e.MaxEvents), uint64(e.PredictorSize)} {
		b = appendU64(b, v)
	}
	b = appendU64(appendBool(b, e.RecordEvents), uint64(len(e.Protected)))
	for _, r := range e.Protected {
		b = appendU64(appendU64(b, r.Base), r.Size)
	}
	b = appendCacheConfig(b, c.MeasureCache)
	b = appendU64(appendU64(b, uint64(c.MaxPathsPerPair)), uint64(c.MaxPathLen))
	return appendU64(b, math.Float64bits(c.MaxWeight))
}
