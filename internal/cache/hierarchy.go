package cache

import "fmt"

// Latencies gives the access cost in virtual cycles for each level of
// the hierarchy. The gap between L1Hit and Memory is what makes the
// reload/probe timing measurements of CSCAs work in simulation.
type Latencies struct {
	L1Hit  uint64
	LLCHit uint64
	Memory uint64
	Flush  uint64 // clflush of a cached line; an uncached flush costs FlushMiss
	// FlushMiss is the (shorter) cost of flushing a line that is not
	// cached — the timing difference Flush+Flush measures.
	FlushMiss uint64
}

// DefaultLatencies roughly matches the latency ratios of a modern Intel
// part (L1 ~4 cycles, LLC ~40, DRAM ~200).
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 4, LLCHit: 40, Memory: 200, Flush: 130, FlushMiss: 90}
}

// HierarchyConfig configures a two-level hierarchy with split L1.
type HierarchyConfig struct {
	L1D Config
	L1I Config
	LLC Config // inclusive of both L1s
	Lat Latencies
}

// DefaultHierarchyConfig returns the configuration used across the
// reproduction: 4 KiB 8-way L1D/L1I and a 128 KiB 8-way inclusive LLC
// with 64-byte lines. The caches are deliberately smaller than real
// hardware so that eviction-set construction (Prime+Probe, Evict+Reload)
// stays cheap while preserving set-index arithmetic.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D: Config{Name: "L1D", Sets: 8, Ways: 8, LineSize: 64, Policy: LRU},
		L1I: Config{Name: "L1I", Sets: 8, Ways: 8, LineSize: 64, Policy: LRU},
		LLC: Config{Name: "LLC", Sets: 256, Ways: 8, LineSize: 64, Policy: LRU},
		Lat: DefaultLatencies(),
	}
}

// AccessKind distinguishes data loads, data stores and instruction
// fetches in the hierarchy.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
	Fetch
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Fetch:
		return "fetch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AccessResult reports what one access did at each level; the execution
// engine converts this into HPC events and latency.
type AccessResult struct {
	Kind    AccessKind
	L1Hit   bool
	LLCHit  bool // meaningful only when !L1Hit
	Latency uint64
}

// Hierarchy is the shared two-level cache of the simulated machine.
type Hierarchy struct {
	l1d Cache
	l1i Cache
	llc Cache
	lat Latencies

	// The way links: l1dLink[w] (l1iLink[w]) is the LLC line filled
	// alongside L1D (L1I) line w. Inclusion keeps the link true while
	// the L1 line is valid — the LLC copy can only leave by an eviction
	// or a flush, and both remove the L1 copy too — so an L1 hit
	// refreshes its LLC line directly instead of scanning the LLC set.
	l1dLink []int32
	l1iLink []int32

	// The repeat-fetch memo. After a fetch, its line sits in the L1I at
	// index l1iWay and in the LLC at llcWay, last touched by fetchOwner. An immediately following fetch of the same line by the
	// same owner is therefore an L1I hit followed by an LLC hit on
	// exactly those lines, and Refetch replays it without scanning
	// either set. Every other operation clears the memo.
	fetchValid bool
	fetchOwner Owner
	fetchLine  uint64 // address >> lineShift
	l1iWay     int    // the last access's L1 and LLC ways; the memo reads
	llcWay     int    // them only after a fetch
	lineShift  uint
}

// Validate checks the configuration: every level must be valid, and
// all levels must share a line size.
func (cfg HierarchyConfig) Validate() error {
	for _, c := range []Config{cfg.L1D, cfg.L1I, cfg.LLC} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if cfg.LLC.LineSize != cfg.L1D.LineSize || cfg.LLC.LineSize != cfg.L1I.LineSize {
		return fmt.Errorf("hierarchy: all levels must share a line size")
	}
	return nil
}

// NewHierarchy builds the hierarchy; cfg must be valid. The lines of
// all three levels are carved from one slab.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, i := slabWords(cfg.L1D), slabWords(cfg.L1I)
	slab := make([]uint64, d+i+slabWords(cfg.LLC))
	nd := cfg.L1D.Sets * cfg.L1D.Ways
	links := make([]int32, nd+cfg.L1I.Sets*cfg.L1I.Ways)
	h := &Hierarchy{lat: cfg.Lat, l1dLink: links[:nd:nd], l1iLink: links[nd:]}
	h.l1d.init(cfg.L1D, slab[:d:d])
	h.l1i.init(cfg.L1I, slab[d:d+i:d+i])
	h.llc.init(cfg.LLC, slab[d+i:])
	h.lineShift = h.l1i.setShift
	return h, nil
}

// Config returns the configuration the hierarchy was built from.
func (h *Hierarchy) Config() HierarchyConfig {
	return HierarchyConfig{L1D: h.l1d.cfg, L1I: h.l1i.cfg, LLC: h.llc.cfg, Lat: h.lat}
}

// Reset returns the hierarchy to the state NewHierarchy leaves: every
// level empty with its clock and counters at zero and a Random level's
// generator re-seeded (see Cache.Reset), the way links cleared and the
// repeat-fetch memo invalid. InvalidateAll alone is not a reset: it
// keeps the clocks, the counters and the generators' positions.
func (h *Hierarchy) Reset() {
	h.l1d.Reset()
	h.l1i.Reset()
	h.llc.Reset()
	clear(h.l1dLink)
	clear(h.l1iLink)
	h.fetchValid, h.fetchOwner, h.fetchLine = false, 0, 0
	h.l1iWay, h.llcWay = 0, 0
}

// The levels are exposed for inspection (lookups, occupancy, stats).
// Mutating a level directly, behind the hierarchy's back, is not
// supported: the way links and the repeat-fetch memo assume every
// access, flush and fill goes through the hierarchy.

// L1D returns the level-1 data cache.
func (h *Hierarchy) L1D() *Cache { return &h.l1d }

// L1I returns the level-1 instruction cache.
func (h *Hierarchy) L1I() *Cache { return &h.l1i }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *Cache { return &h.llc }

// Latencies returns the latency model.
func (h *Hierarchy) Latencies() Latencies { return h.lat }

// Refetch replays a fetch of addr by owner when it repeats the
// previous operation, which was a fetch of the same line by the same
// owner: an L1I hit, with latency Latencies().L1Hit and no event to
// report. It reports whether it did; on false nothing changed and the
// fetch must go through Access.
func (h *Hierarchy) Refetch(addr uint64, owner Owner) bool {
	if !h.fetchValid || addr>>h.lineShift != h.fetchLine || owner != h.fetchOwner {
		return false
	}
	h.l1i.rehit(h.l1iWay)
	h.llc.rehit(h.llcWay)
	return true
}

// Access runs one access through the hierarchy, maintaining inclusion:
// an LLC eviction back-invalidates the corresponding L1 line.
func (h *Hierarchy) Access(addr uint64, kind AccessKind, owner Owner) AccessResult {
	l1, link := &h.l1d, h.l1dLink
	if kind == Fetch {
		l1, link = &h.l1i, h.l1iLink
		h.fetchValid, h.fetchLine, h.fetchOwner = true, addr>>h.lineShift, owner
	} else {
		h.fetchValid = false
	}
	l1.tick++
	l1Way := l1.find(addr)
	if l1Way >= 0 {
		l1.touch(l1Way, owner)
		// Keep the LLC copy's recency and owner warm for inclusive
		// behaviour, exactly as an LLC hit would.
		llcWay := int(link[l1Way])
		h.llc.tick++
		h.llc.touch(llcWay, owner)
		h.l1iWay, h.llcWay = l1Way, llcWay
		return AccessResult{Kind: kind, L1Hit: true, Latency: h.lat.L1Hit}
	}
	l1Way, _, _ = l1.fill(addr, owner)
	llcHit, ev, evicted, llcWay := h.llc.access(addr, owner)
	link[l1Way] = int32(llcWay)
	h.l1iWay, h.llcWay = l1Way, llcWay
	res := AccessResult{Kind: kind, LLCHit: llcHit, Latency: h.lat.Memory}
	if llcHit {
		res.Latency = h.lat.LLCHit
	}
	if evicted {
		// Inclusion: the displaced LLC line leaves the L1s too.
		h.l1d.Flush(ev.Addr)
		h.l1i.Flush(ev.Addr)
	}
	return res
}

// Flush evicts the line containing addr from every level, returning the
// clflush latency (longer when the line was actually cached, which is
// the signal Flush+Flush measures) and whether any level held the line.
func (h *Hierarchy) Flush(addr uint64) (latency uint64, wasCached bool) {
	h.fetchValid = false
	c1 := h.l1d.Flush(addr)
	c2 := h.l1i.Flush(addr)
	c3 := h.llc.Flush(addr)
	if c1 || c2 || c3 {
		return h.lat.Flush, true
	}
	return h.lat.FlushMiss, false
}

// Cached reports whether addr is present at any level (no state change).
func (h *Hierarchy) Cached(addr uint64) bool {
	return h.l1d.Lookup(addr) || h.l1i.Lookup(addr) || h.llc.Lookup(addr)
}

// InvalidateAll empties every level.
func (h *Hierarchy) InvalidateAll() {
	h.fetchValid = false
	h.l1d.InvalidateAll()
	h.l1i.InvalidateAll()
	h.llc.InvalidateAll()
	clear(h.l1dLink)
	clear(h.l1iLink)
}

// FillAll fills every level with owner-tagged lines.
func (h *Hierarchy) FillAll(owner Owner) {
	h.fetchValid = false
	h.l1d.FillAll(owner)
	h.l1i.FillAll(owner)
	h.llc.FillAll(owner)
	clear(h.l1dLink)
	clear(h.l1iLink)
}

// Occupancy returns the LLC cache state with the given attacker owner.
// The LLC is the level CSCAs contend on across processes, so occupancy is
// measured there.
func (h *Hierarchy) Occupancy(attacker Owner) State { return h.llc.Occupancy(attacker) }
