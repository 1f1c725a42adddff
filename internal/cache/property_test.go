package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Inclusion invariant: any line present in an L1 must be present in the
// LLC, under arbitrary interleavings of loads, stores, fetches and
// flushes by two owners.
func TestHierarchyInclusionProperty(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.LLC = Config{Name: "LLC", Sets: 16, Ways: 2, LineSize: 64, Policy: LRU}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := mustNewHierarchy(cfg)
		lines := make([]uint64, 24)
		for i := range lines {
			lines[i] = uint64(rng.Intn(64)) * 64
		}
		for i := 0; i < 300; i++ {
			addr := lines[rng.Intn(len(lines))]
			owner := Owner(rng.Intn(2))
			switch rng.Intn(4) {
			case 0:
				h.Access(addr, Load, owner)
			case 1:
				h.Access(addr, Store, owner)
			case 2:
				h.Access(addr, Fetch, owner)
			case 3:
				h.Flush(addr)
			}
			// Check inclusion for every tracked line.
			for _, l := range lines {
				if (h.L1D().Lookup(l) || h.L1I().Lookup(l)) && !h.LLC().Lookup(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Flushing always removes the line from every level, whatever came
// before.
func TestFlushRemovesEverywhereProperty(t *testing.T) {
	f := func(ops []uint16, target uint16) bool {
		h := defaultHierarchy()
		for _, op := range ops {
			h.Access(uint64(op)*64, AccessKind(op%3), Owner(op%2))
		}
		addr := uint64(target) * 64
		h.Flush(addr)
		return !h.Cached(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// All replacement policies keep the most recently accessed line
// resident (the just-filled way cannot be the next victim in any sane
// policy before another access).
func TestJustAccessedLineResidentAllPolicies(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random} {
		cfg := Config{Name: "p", Sets: 4, Ways: 2, LineSize: 64, Policy: pol, Seed: 3}
		f := func(addrs []uint16) bool {
			c := MustNew(cfg)
			for _, a := range addrs {
				addr := uint64(a) * 64
				c.Access(addr, 0)
				if !c.Lookup(addr) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
	}
}

// Occupancy conservation: the number of valid lines equals the sum of
// attacker- and other-owned lines, and never exceeds capacity.
func TestOccupancyConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{Name: "o", Sets: 8, Ways: 4, LineSize: 64, Policy: LRU})
		for _, op := range ops {
			if op%5 == 0 {
				c.Flush(uint64(op) * 64)
			} else {
				c.Access(uint64(op)*64, Owner(op%2))
			}
		}
		st := c.Occupancy(0)
		total := float64(c.totalLines)
		used := (st.AO + st.IO) * total
		return int(used+0.5) == usedLines(c) && usedLines(c) <= c.totalLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// A hierarchy access always returns one of the three latency classes.
func TestLatencyClassesProperty(t *testing.T) {
	lat := DefaultLatencies()
	f := func(addrs []uint16) bool {
		h := defaultHierarchy()
		for _, a := range addrs {
			r := h.Access(uint64(a)*64, Load, 0)
			switch r.Latency {
			case lat.L1Hit, lat.LLCHit, lat.Memory:
			default:
				return false
			}
			if r.L1Hit && r.Latency != lat.L1Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
