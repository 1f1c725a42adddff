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
	return nil
}

// SizeBytes returns the capacity of the configured cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// SetIndex maps an address to its set index in a cache of this
// configuration, without building the cache. c must be valid.
func (c Config) SetIndex(addr uint64) int {
	return int((addr >> bits.TrailingZeros(uint(c.LineSize))) & uint64(c.Sets-1))
}

type line struct {
	tag      uint64
	lastUse  uint64 // LRU timestamp
	inserted uint64 // FIFO timestamp
	owner    Owner
	valid    bool
}

// Stats accumulates hit/miss/flush counts.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64 // lines actually removed by Flush
}

// Cache is one set-associative cache level. Create with New.
type Cache struct {
	cfg        Config
	lines      []line // Sets*Ways lines, set-major: set s is lines[s*Ways:(s+1)*Ways]
	tick       uint64
	rng        *rand.Rand // Random policy only
	stats      Stats
	setShift   uint // log2(LineSize)
	tagShift   uint // log2(LineSize) + log2(Sets)
	setMask    uint64
	totalLines int
	usedLines  int
}

// New builds a cache from its configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:        cfg,
		lines:      make([]line, cfg.Sets*cfg.Ways),
		setShift:   uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint64(cfg.Sets - 1),
		totalLines: cfg.Sets * cfg.Ways,
	}
	c.tagShift = c.setShift + uint(bits.TrailingZeros(uint(cfg.Sets)))
	if cfg.Policy == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	for i := range c.lines {
		c.lines[i].owner = OwnerNone
	}
	return c, nil
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

func (c *Cache) tag(addr uint64) uint64 { return addr >> c.tagShift }

// set returns the ways of set si.
func (c *Cache) set(si int) []line {
	base, end := si*c.cfg.Ways, (si+1)*c.cfg.Ways
	return c.lines[base:end:end]
}

// Lookup reports whether addr is cached, without disturbing any
// replacement state.
func (c *Cache) Lookup(addr uint64) bool {
	set := c.set(c.SetIndex(addr))
	t := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			return true
		}
	}
	return false
}

// EvictedLine describes a line displaced by a fill.
type EvictedLine struct {
	Addr  uint64
	Owner Owner
}

// Access performs a read or write of addr by owner. It returns whether
// the access hit, and (on a fill that displaced a valid line) the evicted
// line. Writes allocate like reads (write-allocate).
func (c *Cache) Access(addr uint64, owner Owner) (hit bool, evicted *EvictedLine) {
	hit, ev, ok := c.access(addr, owner)
	if ok {
		return hit, &ev
	}
	return hit, nil
}

// access is Access reporting the evicted line by value: ok is false
// when the fill displaced nothing.
func (c *Cache) access(addr uint64, owner Owner) (hit bool, ev EvictedLine, ok bool) {
	c.tick++
	si := c.SetIndex(addr)
	set := c.set(si)
	t := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			set[i].lastUse = c.tick
			set[i].owner = owner // the most recent toucher owns the line
			c.stats.Hits++
			return true, EvictedLine{}, false
		}
	}
	c.stats.Misses++
	victim := c.chooseVictim(set)
	v := &set[victim]
	if v.valid {
		c.stats.Evictions++
		ev, ok = EvictedLine{Addr: c.reconstructAddr(v.tag, si), Owner: v.owner}, true
	} else {
		c.usedLines++
	}
	*v = line{valid: true, tag: t, owner: owner, lastUse: c.tick, inserted: c.tick}
	return false, ev, ok
}

func (c *Cache) reconstructAddr(tag uint64, setIdx int) uint64 {
	return tag<<c.tagShift | uint64(setIdx)<<c.setShift
}

func (c *Cache) chooseVictim(set []line) int {
	// Prefer an invalid way.
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	switch c.cfg.Policy {
	case FIFO:
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].inserted < set[best].inserted {
				best = i
			}
		}
		return best
	case Random:
		return c.rng.Intn(len(set))
	default: // LRU
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[best].lastUse {
				best = i
			}
		}
		return best
	}
}

// Flush removes the line containing addr, returning whether it was
// present (the timing signal Flush+Flush exploits).
func (c *Cache) Flush(addr uint64) bool {
	set := c.set(c.SetIndex(addr))
	t := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			set[i] = line{owner: OwnerNone}
			c.stats.Flushes++
			c.usedLines--
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (counters are preserved).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{owner: OwnerNone}
	}
	c.usedLines = 0
}

// FillAll installs owner-tagged lines in every way of every set, giving
// the "cache is full of data" initial condition used when measuring a
// CST (Section III-A3: IO=1, AO=0 when owner is not the attacker).
// Synthetic tags are used so the lines do not collide with program data.
func (c *Cache) FillAll(owner Owner) {
	c.tick++
	for i := range c.lines {
		c.lines[i] = line{
			valid:    true,
			tag:      ^uint64(0) - uint64(i%c.cfg.Ways), // high tags, disjoint from real data
			owner:    owner,
			lastUse:  c.tick,
			inserted: c.tick,
		}
	}
	c.usedLines = c.totalLines
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
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if l.owner == attacker {
			ao++
		} else {
			io++
		}
	}
	total := float64(c.totalLines)
	return State{AO: float64(ao) / total, IO: float64(io) / total}
}

// UsedLines returns the number of valid lines.
func (c *Cache) UsedLines() int { return c.usedLines }

// TotalLines returns the line capacity.
func (c *Cache) TotalLines() int { return c.totalLines }

// OwnerOfLine returns the owner of the line containing addr, or
// OwnerNone when the line is absent.
func (c *Cache) OwnerOfLine(addr uint64) Owner {
	set := c.set(c.SetIndex(addr))
	t := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			return set[i].owner
		}
	}
	return OwnerNone
}

// SetOccupants returns the number of valid lines in the set containing
// addr; SCADET-style rules use this to spot prime sweeps.
func (c *Cache) SetOccupants(addr uint64) int {
	set := c.set(c.SetIndex(addr))
	n := 0
	for i := range set {
		if set[i].valid {
			n++
		}
	}
	return n
}
