package scan

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/textdist"
)

// noID marks a basic block that could not be interned (cache full); its
// distances are computed directly and never memoized.
const noID = ^uint32(0)

// Interning and memoization caps. Both are far above anything the
// repository corpus produces; they exist so a pathological stream of
// unique targets cannot grow the cache without bound. Once a cap is
// reached the cache degrades to pass-through computation.
//
// maxInterned must stay strictly below noID (2^32-1): ids are dense
// uint32s and noID is the reserved "not interned" sentinel, so the id
// space holds at most 2^32-1 distinct blocks. Raising the cap past
// that would silently wrap ids and alias distinct blocks — nextInternID
// fails loudly (typed panic) long before that can corrupt a distance.
const (
	maxInterned = 1 << 20 // distinct basic-block instruction sequences
	maxMemoized = 1 << 22 // distinct block pairs
)

// InternOverflowError is the panic value raised if the DistCache id
// space (2^32-1 blocks; noID is reserved) would be exhausted. It is
// unreachable while maxInterned < noID holds — the panic exists so a
// future cap raise past the uint32 limit fails loudly on the first
// overflowing intern instead of silently aliasing blocks.
type InternOverflowError struct {
	// Interned is the number of blocks already interned when the
	// overflow was detected.
	Interned int
}

func (e *InternOverflowError) Error() string {
	return fmt.Sprintf("scan: DistCache intern id space exhausted: %d blocks interned, uint32 ids (noID reserved) allow at most %d — lower maxInterned below 2^32-1", e.Interned, uint64(noID))
}

// nextInternID returns the dense id for the n-th interned block,
// panicking with *InternOverflowError when n collides with the noID
// sentinel or would wrap uint32.
func nextInternID(n int) uint32 {
	if uint64(n) >= uint64(noID) {
		panic(&InternOverflowError{Interned: n})
	}
	return uint32(n)
}

// DistCache memoizes the normalized-instruction Levenshtein distances
// (D_IS) that dominate CST-BBS comparison. Basic blocks repeat heavily —
// a probe loop appears in every Prime+Probe variant, a flush block in
// every Flush+Reload mutant — so the same Levenshtein computation would
// otherwise run once per DTW cell, per repository entry, per scan.
//
// Blocks are interned to dense uint32 ids keyed on a collision-free
// (length-prefixed) join of the normalized instruction strings; pair
// distances are then memoized under the canonical (min,max) id pair,
// exploiting the symmetry of the Levenshtein distance. All methods are
// safe for concurrent use; values are pure functions of their inputs, so
// a racing double-compute is harmless.
//
// The cache is deliberately independent of the similarity Options: it
// stores raw D_IS values only, never weighted sums, so one cache serves
// every detector and every weight configuration sharing a repository.
type DistCache struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	dists map[uint64]float64

	// Hit/miss counters (atomic, always on: two uncontended atomic adds
	// are noise next to the map lookups they count). A "hit" is a value
	// served without running the Levenshtein computation — including the
	// identical-id short-cut; a "miss" is a computed value, whether or
	// not it could be stored.
	blockHits, blockMisses atomic.Uint64
	pairHits, pairMisses   atomic.Uint64
}

// NewDistCache returns an empty cache.
func NewDistCache() *DistCache {
	return &DistCache{
		ids:   make(map[string]uint32),
		dists: make(map[uint64]float64),
	}
}

// appendBlockKey appends the collision-free key of a normalized
// instruction sequence to dst: each token is length-prefixed, so no
// choice of token contents can make two distinct sequences collide.
func appendBlockKey(dst []byte, seq []string) []byte {
	for _, s := range seq {
		dst = strconv.AppendInt(dst, int64(len(s)), 10)
		dst = append(dst, ':')
		dst = append(dst, s...)
	}
	return dst
}

// intern maps a block key (appendBlockKey) to a stable dense id,
// creating one if needed. Equal sequences always receive equal ids;
// returns noID when the intern table is full. A hit allocates nothing
// (the map lookup by string(key) does not copy), so callers reuse one
// key buffer across blocks; only a new block stores a copy of its key.
func (c *DistCache) intern(key []byte) uint32 {
	c.mu.RLock()
	id, ok := c.ids[string(key)]
	c.mu.RUnlock()
	if ok {
		c.blockHits.Add(1)
		return id
	}
	c.blockMisses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.ids[string(key)]; ok {
		return id
	}
	if len(c.ids) >= maxInterned {
		return noID
	}
	id = nextInternID(len(c.ids))
	c.ids[string(key)] = id
	return id
}

// normalized returns textdist.Normalized(sa, sb), memoized under the
// interned ids when both blocks are interned. Identical ids short-cut to
// 0 (the distance of a sequence to itself).
func (c *DistCache) normalized(ia uint32, sa []string, ib uint32, sb []string) float64 {
	if ia == noID || ib == noID {
		c.pairMisses.Add(1)
		return textdist.Normalized(sa, sb)
	}
	if ia == ib {
		c.pairHits.Add(1)
		return 0
	}
	lo, hi := ia, ib
	if lo > hi {
		lo, hi = hi, lo
	}
	k := uint64(lo)<<32 | uint64(hi)
	c.mu.RLock()
	v, ok := c.dists[k]
	c.mu.RUnlock()
	if ok {
		c.pairHits.Add(1)
		return v
	}
	c.pairMisses.Add(1)
	v = textdist.Normalized(sa, sb)
	c.mu.Lock()
	if len(c.dists) < maxMemoized {
		c.dists[k] = v
	}
	c.mu.Unlock()
	return v
}

// normalizedFlat is normalized over the flattened symbol form: the same
// memo map, the same (min,max)-id keys and the same hit/miss counters,
// but a miss computes the Levenshtein over interned symbols
// (textdist.Scratch.NormalizedU32) in caller-owned scratch rows —
// bit-identical to the string computation under the injective symbol
// mapping, allocation-free when the pair is already memoized. Both
// blocks must be interned; callers route noID blocks to normalized.
func (c *DistCache) normalizedFlat(ia uint32, sa []uint32, ib uint32, sb []uint32, s *textdist.Scratch) float64 {
	if ia == ib {
		c.pairHits.Add(1)
		return 0
	}
	lo, hi := ia, ib
	if lo > hi {
		lo, hi = hi, lo
	}
	k := uint64(lo)<<32 | uint64(hi)
	c.mu.RLock()
	v, ok := c.dists[k]
	c.mu.RUnlock()
	if ok {
		c.pairHits.Add(1)
		return v
	}
	c.pairMisses.Add(1)
	v = s.NormalizedU32(sa, sb)
	c.mu.Lock()
	if len(c.dists) < maxMemoized {
		c.dists[k] = v
	}
	c.mu.Unlock()
	return v
}

// Stats reports the number of interned blocks and memoized pair
// distances, for diagnostics and tests.
func (c *DistCache) Stats() (blocks, pairs int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ids), len(c.dists)
}

// CacheStats is the detailed view of a DistCache: sizes plus hit/miss
// counters for both the intern table (blocks) and the pair memo.
type CacheStats struct {
	Blocks, Pairs          int
	BlockHits, BlockMisses uint64
	PairHits, PairMisses   uint64
}

// StatsDetail extends Stats with the hit/miss counters the telemetry
// layer exports as gauges.
func (c *DistCache) StatsDetail() CacheStats {
	blocks, pairs := c.Stats()
	return CacheStats{
		Blocks:      blocks,
		Pairs:       pairs,
		BlockHits:   c.blockHits.Load(),
		BlockMisses: c.blockMisses.Load(),
		PairHits:    c.pairHits.Load(),
		PairMisses:  c.pairMisses.Load(),
	}
}

// TelemetryGauges adapts StatsDetail to a telemetry gauge source;
// register it under the "distcache" name so the derived hit rates and
// the -stats report pick it up.
func (c *DistCache) TelemetryGauges() map[string]uint64 {
	st := c.StatsDetail()
	return map[string]uint64{
		"blocks":       uint64(st.Blocks),
		"pairs":        uint64(st.Pairs),
		"block_hits":   st.BlockHits,
		"block_misses": st.BlockMisses,
		"pair_hits":    st.PairHits,
		"pair_misses":  st.PairMisses,
	}
}
