// Package cache implements the set-associative cache simulator that
// underlies both the execution engine (internal/exec) and SCAGuard's
// cache-state-transition measurement (internal/model).
//
// Lines are tagged with the id of the process that installed them, which
// is what lets the simulator report the paper's cache-state occupancy
// pair (AO, IO): the fraction of lines owned by the attack program and
// the fraction owned by everyone else (Definition 3 of the paper).
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"unsafe"
)

// Owner identifies which process installed a cache line. OwnerNone marks
// an empty line; the execution engine uses 0 for the attacker/target
// process and 1 for the victim.
type Owner int8

// OwnerNone marks an invalid (empty) line.
const OwnerNone Owner = -1

// Policy selects the replacement policy of a cache.
type Policy uint8

// Replacement policies.
const (
	LRU Policy = iota
	FIFO
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes one cache level.
type Config struct {
	Name     string
	Sets     int // number of sets; must be a power of two
	Ways     int // associativity
	LineSize int // bytes per line; must be a power of two
	Policy   Policy
	Seed     int64 // rng seed for the Random policy
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %q: sets %d must be a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %q: ways %d must be positive", c.Name, c.Ways)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d must be a positive power of two", c.Name, c.LineSize)
	}
	if c.Sets*c.LineSize < 2 {
		// A tag must leave the top address bit free for the line key.
		return fmt.Errorf("cache %q: sets × line size must be at least 2", c.Name)
	}
	return nil
}

// SetIndex maps an address to its set index in a cache of this
// configuration, without building the cache. c must be valid.
func (c Config) SetIndex(addr uint64) int {
	return int((addr >> bits.TrailingZeros(uint(c.LineSize))) & uint64(c.Sets-1))
}

// Stats accumulates hit/miss/flush counts.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64 // lines actually removed by Flush
}

// keyFlip turns a tag into a line key. Every real tag has a clear top
// bit (Validate guarantees the address shift drops at least one bit),
// and FillAll's synthetic tags are within Ways of all ones, so no tag
// maps to key 0, which therefore marks an empty line.
const keyFlip = 1 << 63

// Cache is one set-associative cache level. Create with New.
//
// The lines are stored set-major (set s owns ways [s*Ways, (s+1)*Ways))
// in three parallel arrays, carved from one slab, whose zero value is an
// empty line:
//   - keys holds tag^keyFlip for a valid line and 0 for an empty one;
//     it is the only array a set scan reads;
//   - stamps holds the replacement stamp: the last use under LRU, the
//     insertion time under FIFO (Random ignores it);
//   - owners holds each line's owner plus one, so 0 is OwnerNone.
type Cache struct {
	cfg        Config
	keys       []uint64
	stamps     []uint64
	owners     []uint8
	tick       uint64
	rng        *rand.Rand // Random policy only
	stats      Stats
	setShift   uint // log2(LineSize)
	tagShift   uint // log2(LineSize) + log2(Sets)
	setMask    uint64
	totalLines int
}

// New builds a cache from its configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{}
	c.init(cfg, make([]uint64, slabWords(cfg)))
	return c, nil
}

// slabWords is the length of the slab holding the lines of a cache of
// configuration cfg: the keys, the stamps, then the owner bytes.
func slabWords(cfg Config) int {
	n := cfg.Sets * cfg.Ways
	return 2*n + (n+7)/8
}

// init sets up a cache of the valid configuration cfg over slab, a
// zeroed slice of slabWords(cfg) words. The owners are a byte view of
// the slab's tail, so one allocation holds all three arrays; the slab
// holds no pointers, so the view is safe for the garbage collector.
func (c *Cache) init(cfg Config, slab []uint64) {
	n := cfg.Sets * cfg.Ways
	*c = Cache{
		cfg:        cfg,
		keys:       slab[:n:n],
		stamps:     slab[n : 2*n : 2*n],
		owners:     unsafe.Slice((*uint8)(unsafe.Pointer(&slab[2*n])), n),
		setShift:   uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint64(cfg.Sets - 1),
		totalLines: cfg.Sets * cfg.Ways,
	}
	c.tagShift = c.setShift + uint(bits.TrailingZeros(uint(cfg.Sets)))
	if cfg.Policy == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex maps an address to its set index.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineSize) - 1)
}

// key returns the line key of addr: its tag with the valid bit folded in.
func (c *Cache) key(addr uint64) uint64 { return addr>>c.tagShift ^ keyFlip }

// ownerCode and ownerOf convert between an Owner and its stored form.
func ownerCode(o Owner) uint8 { return uint8(o) + 1 }
func ownerOf(v uint8) Owner   { return Owner(int8(v - 1)) }

// find returns the index of the line holding addr, or -1.
func (c *Cache) find(addr uint64) int {
	base := c.SetIndex(addr) * c.cfg.Ways
	k := c.key(addr)
	for i, kk := range c.keys[base : base+c.cfg.Ways] {
		if kk == k {
			return base + i
		}
	}
	return -1
}

// Lookup reports whether addr is cached, without disturbing any
// replacement state.
func (c *Cache) Lookup(addr uint64) bool { return c.find(addr) >= 0 }

// EvictedLine describes a line displaced by a fill.
type EvictedLine struct {
	Addr  uint64
	Owner Owner
}

// Access performs a read or write of addr by owner. It returns whether
// the access hit, and (on a fill that displaced a valid line) the evicted
// line. Writes allocate like reads (write-allocate).
func (c *Cache) Access(addr uint64, owner Owner) (hit bool, evicted *EvictedLine) {
	hit, ev, ok, _ := c.access(addr, owner)
	if ok {
		return hit, &ev
	}
	return hit, nil
}

// access is Access reporting the evicted line by value: ok is false
// when the fill displaced nothing. way is the index of the line that
// now holds addr.
func (c *Cache) access(addr uint64, owner Owner) (hit bool, ev EvictedLine, ok bool, way int) {
	c.tick++
	if way = c.find(addr); way >= 0 {
		c.touch(way, owner)
		return true, EvictedLine{}, false, way
	}
	way, ev, ok = c.fill(addr, owner)
	return false, ev, ok, way
}

// fill is the miss half of access, after the clock advanced: it installs
// addr for owner in the way the policy picks, and reports that way and
// the line it displaced, if any.
func (c *Cache) fill(addr uint64, owner Owner) (way int, ev EvictedLine, ok bool) {
	c.stats.Misses++
	si := c.SetIndex(addr)
	base := si * c.cfg.Ways
	way = base + c.chooseVictim(c.keys[base:base+c.cfg.Ways], base)
	if old := c.keys[way]; old != 0 {
		c.stats.Evictions++
		ev, ok = EvictedLine{Addr: c.reconstructAddr(old^keyFlip, si), Owner: ownerOf(c.owners[way])}, true
	}
	c.keys[way], c.stamps[way], c.owners[way] = c.key(addr), c.tick, ownerCode(owner)
	return way, ev, ok
}

// touch records a hit on line way by owner at the current tick: the
// most recent toucher owns the line, and under LRU it becomes the most
// recently used.
func (c *Cache) touch(way int, owner Owner) {
	if c.cfg.Policy == LRU {
		c.stamps[way] = c.tick
	}
	c.owners[way] = ownerCode(owner)
	c.stats.Hits++
}

// rehit replays a hit on line way by the owner that touched it last:
// the clock, the hit count and the line's recency advance exactly as
// access would have advanced them.
func (c *Cache) rehit(way int) {
	c.tick++
	if c.cfg.Policy == LRU {
		c.stamps[way] = c.tick
	}
	c.stats.Hits++
}

func (c *Cache) reconstructAddr(tag uint64, setIdx int) uint64 {
	return tag<<c.tagShift | uint64(setIdx)<<c.setShift
}

// chooseVictim picks the way of set (the keys of the set starting at
// line base) a fill replaces.
func (c *Cache) chooseVictim(set []uint64, base int) int {
	// Prefer an invalid way.
	for i, k := range set {
		if k == 0 {
			return i
		}
	}
	if c.cfg.Policy == Random {
		return c.rng.Intn(len(set))
	}
	// LRU and FIFO both evict the oldest stamp, the first on a tie.
	stamps := c.stamps[base : base+len(set)]
	best := 0
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[best] {
			best = i
		}
	}
	return best
}

// Flush removes the line containing addr, returning whether it was
// present (the timing signal Flush+Flush exploits).
func (c *Cache) Flush(addr uint64) bool {
	w := c.find(addr)
	if w < 0 {
		return false
	}
	c.keys[w], c.stamps[w], c.owners[w] = 0, 0, 0
	c.stats.Flushes++
	return true
}

// Reset returns the cache to the state New leaves: every line empty,
// the clock and the counters at zero and, under the Random policy, the
// generator re-seeded from Config.Seed, so a reset cache replays the
// victim choices of a new one.
func (c *Cache) Reset() {
	c.InvalidateAll()
	c.tick = 0
	c.stats = Stats{}
	if c.rng != nil {
		c.rng.Seed(c.cfg.Seed)
	}
}

// InvalidateAll empties the cache (counters are preserved).
func (c *Cache) InvalidateAll() {
	clear(c.keys)
	clear(c.stamps)
	clear(c.owners)
}

// FillAll installs owner-tagged lines in every way of every set, giving
// the "cache is full of data" initial condition used when measuring a
// CST (Section III-A3: IO=1, AO=0 when owner is not the attacker).
// Synthetic tags are used so the lines do not collide with program data.
func (c *Cache) FillAll(owner Owner) {
	c.tick++
	code := ownerCode(owner)
	for i := range c.keys {
		c.keys[i] = (^uint64(0) - uint64(i%c.cfg.Ways)) ^ keyFlip // high tags, disjoint from real data
		c.stamps[i] = c.tick
		c.owners[i] = code
	}
}

// State is the paper's cache state (Definition 3): AO is the occupancy
// rate of lines owned by the attack program, IO the occupancy rate of
// valid lines owned by anyone else. AO+IO <= 1 always holds.
type State struct {
	AO float64
	IO float64
}

// Occupancy computes the cache state, treating attacker as "the attack
// program" of Definition 3.
func (c *Cache) Occupancy(attacker Owner) State {
	var ao, io int
	a := ownerCode(attacker)
	for i, k := range c.keys {
		if k == 0 {
			continue
		}
		if c.owners[i] == a {
			ao++
		} else {
			io++
		}
	}
	total := float64(c.totalLines)
	return State{AO: float64(ao) / total, IO: float64(io) / total}
}
