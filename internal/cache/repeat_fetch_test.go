package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLine is one line of the reference model.
type refLine struct {
	valid    bool
	tag      uint64
	owner    Owner
	lastUse  uint64
	inserted uint64
}

// refLevel is a naive model of one cache level that shares no code
// with Cache: every set is a slice of line structs, set and tag come
// from division, and every operation scans its set. A Random level
// draws from its own rand.Source, at the points the policy says a
// victim is chosen (a miss in a full set).
type refLevel struct {
	cfg   Config
	sets  [][]refLine
	tick  uint64
	rng   *rand.Rand
	stats Stats
}

func newRefLevel(cfg Config) *refLevel {
	l := &refLevel{cfg: cfg, sets: make([][]refLine, cfg.Sets)}
	for s := range l.sets {
		l.sets[s] = make([]refLine, cfg.Ways)
	}
	if cfg.Policy == Random {
		l.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return l
}

func (l *refLevel) locate(addr uint64) (set int, tag uint64) {
	ln := addr / uint64(l.cfg.LineSize)
	return int(ln % uint64(l.cfg.Sets)), ln / uint64(l.cfg.Sets)
}

// way returns the way of set holding tag, or -1.
func (l *refLevel) way(set int, tag uint64) int {
	for w, ln := range l.sets[set] {
		if ln.valid && ln.tag == tag {
			return w
		}
	}
	return -1
}

// access reads or writes addr for owner; evicted reports the address
// of a displaced valid line.
func (l *refLevel) access(addr uint64, owner Owner) (hit bool, evicted uint64, ok bool) {
	l.tick++
	set, tag := l.locate(addr)
	lines := l.sets[set]
	if w := l.way(set, tag); w >= 0 {
		lines[w].lastUse, lines[w].owner = l.tick, owner
		l.stats.Hits++
		return true, 0, false
	}
	l.stats.Misses++
	victim := -1
	for w := range lines {
		if !lines[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		switch l.cfg.Policy {
		case Random:
			victim = l.rng.Intn(len(lines))
		case FIFO:
			victim = 0
			for w := range lines {
				if lines[w].inserted < lines[victim].inserted {
					victim = w
				}
			}
		default:
			victim = 0
			for w := range lines {
				if lines[w].lastUse < lines[victim].lastUse {
					victim = w
				}
			}
		}
		old := lines[victim].tag
		evicted = (old*uint64(l.cfg.Sets) + uint64(set)) * uint64(l.cfg.LineSize)
		ok = true
		l.stats.Evictions++
	}
	lines[victim] = refLine{valid: true, tag: tag, owner: owner, lastUse: l.tick, inserted: l.tick}
	return false, evicted, ok
}

func (l *refLevel) flush(addr uint64) bool {
	set, tag := l.locate(addr)
	if w := l.way(set, tag); w >= 0 {
		l.sets[set][w] = refLine{}
		l.stats.Flushes++
		return true
	}
	return false
}

func (l *refLevel) invalidateAll() {
	for _, lines := range l.sets {
		clear(lines)
	}
}

// fillAll installs owner's lines everywhere, with the synthetic tags
// the cache documents: all ones minus the way.
func (l *refLevel) fillAll(owner Owner) {
	l.tick++
	for _, lines := range l.sets {
		for w := range lines {
			lines[w] = refLine{valid: true, tag: ^uint64(0) - uint64(w), owner: owner, lastUse: l.tick, inserted: l.tick}
		}
	}
}

func (l *refLevel) used() int {
	n := 0
	for _, lines := range l.sets {
		for _, ln := range lines {
			if ln.valid {
				n++
			}
		}
	}
	return n
}

func (l *refLevel) occupancy(attacker Owner) State {
	var ao, io int
	for _, lines := range l.sets {
		for _, ln := range lines {
			switch {
			case !ln.valid:
			case ln.owner == attacker:
				ao++
			default:
				io++
			}
		}
	}
	total := float64(l.cfg.Sets * l.cfg.Ways)
	return State{AO: float64(ao) / total, IO: float64(io) / total}
}

// refHierarchy is the reference the hierarchy's fast paths (the
// repeat-fetch memo and the L1→LLC way links) are checked against:
// three refLevels, every access taking the full path through both
// levels, and inclusion kept by back-invalidating LLC evictions.
type refHierarchy struct {
	l1d, l1i, llc *refLevel
	lat           Latencies
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{l1d: newRefLevel(cfg.L1D), l1i: newRefLevel(cfg.L1I), llc: newRefLevel(cfg.LLC), lat: cfg.Lat}
}

func (h *refHierarchy) levels() []*refLevel { return []*refLevel{h.l1d, h.l1i, h.llc} }

func (h *refHierarchy) Access(addr uint64, kind AccessKind, owner Owner) (res AccessResult, evicted uint64, ok bool) {
	l1 := h.l1d
	if kind == Fetch {
		l1 = h.l1i
	}
	res = AccessResult{Kind: kind}
	if hit, _, _ := l1.access(addr, owner); hit {
		h.llc.access(addr, owner)
		res.L1Hit, res.Latency = true, h.lat.L1Hit
		return res, 0, false
	}
	llcHit, ev, ok := h.llc.access(addr, owner)
	res.LLCHit = llcHit
	res.Latency = h.lat.Memory
	if llcHit {
		res.Latency = h.lat.LLCHit
	}
	if ok {
		h.l1d.flush(ev)
		h.l1i.flush(ev)
	}
	return res, ev, ok
}

func (h *refHierarchy) Flush(addr uint64) (uint64, bool) {
	c1, c2, c3 := h.l1d.flush(addr), h.l1i.flush(addr), h.llc.flush(addr)
	if c1 || c2 || c3 {
		return h.lat.Flush, true
	}
	return h.lat.FlushMiss, false
}

// TestRepeatFetchMatchesFullPath drives Hierarchy and the reference in
// lockstep over seeded random operation sequences and compares every
// result, every level's counters and occupancy, the residency and owner
// of every pool line, and every way's content after every step. The
// sequences are biased towards the cases the fast paths must survive:
// repeated fetches of one line (through Refetch), L1 hits on lines whose
// LLC set just had an eviction, back-invalidation, FillAll and
// InvalidateAll.
func TestRepeatFetchMatchesFullPath(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/%d", pol, seed), func(t *testing.T) {
				checkRepeatFetch(t, pol, seed)
			})
		}
	}
}

func checkRepeatFetch(t *testing.T, pol Policy, seed int64) {
	cfg := HierarchyConfig{
		L1D: Config{Name: "L1D", Sets: 4, Ways: 2, LineSize: 64, Policy: pol, Seed: seed},
		L1I: Config{Name: "L1I", Sets: 4, Ways: 2, LineSize: 64, Policy: pol, Seed: seed + 1},
		LLC: Config{Name: "LLC", Sets: 8, Ways: 2, LineSize: 64, Policy: pol, Seed: seed + 2},
		Lat: DefaultLatencies(),
	}
	h, ref := mustNewHierarchy(cfg), newRefHierarchy(cfg)
	rng := rand.New(rand.NewSource(seed))
	// A small line pool keeps sets contended, so repeat fetches meet
	// evictions, back-invalidations and owner changes.
	lines := make([]uint64, 40)
	for i := range lines {
		lines[i] = uint64(rng.Intn(96)) * 64
	}
	prev := lines[0]
	evictedSet := -1 // LLC set of the last eviction
	owner := Owner(0)
	for step := 0; step < 4000; step++ {
		addr := lines[rng.Intn(len(lines))] + uint64(rng.Intn(64))
		switch r := rng.Intn(8); {
		case r < 4:
			addr = prev&^63 + uint64(rng.Intn(64)) // same line as the previous operation
		case r < 6:
			// An L1-resident line, preferably one in the LLC set that
			// just had an eviction: its way link must still be right.
			var cands []uint64
			for _, l := range lines {
				if (h.L1D().Lookup(l) || h.L1I().Lookup(l)) && (evictedSet < 0 || h.LLC().SetIndex(l) == evictedSet) {
					cands = append(cands, l)
				}
			}
			if len(cands) > 0 {
				addr = cands[rng.Intn(len(cands))]
			}
		}
		if rng.Intn(8) == 0 {
			owner = 1 - owner
		}
		op := rng.Intn(40)
		var what string
		switch {
		case op < 32:
			kind := []AccessKind{Fetch, Fetch, Fetch, Load, Store}[rng.Intn(5)]
			what = kind.String()
			want, ev, evicted := ref.Access(addr, kind, owner)
			var got AccessResult
			if kind == Fetch && h.Refetch(addr, owner) {
				what = "refetch"
				got = AccessResult{Kind: Fetch, L1Hit: true, Latency: cfg.Lat.L1Hit}
			} else {
				got = h.Access(addr, kind, owner)
			}
			if got != want {
				t.Fatalf("step %d: %s %#x by %d = %+v, reference %+v", step, what, addr, owner, got, want)
			}
			if evicted {
				evictedSet = h.LLC().SetIndex(ev)
			}
		case op < 36:
			what = "flush"
			gl, gc := h.Flush(addr)
			wl, wc := ref.Flush(addr)
			if gl != wl || gc != wc {
				t.Fatalf("step %d: flush %#x = (%d,%v), reference (%d,%v)", step, addr, gl, gc, wl, wc)
			}
		case op < 38:
			what = "invalidate"
			h.InvalidateAll()
			for _, l := range ref.levels() {
				l.invalidateAll()
			}
		default:
			what = "fill"
			h.FillAll(owner)
			for _, l := range ref.levels() {
				l.fillAll(owner)
			}
		}
		prev = addr
		compareLevels(t, step, what, h, ref, lines)
	}
}

// compareLevels checks every level of h against its reference level.
func compareLevels(t *testing.T, step int, what string, h *Hierarchy, ref *refHierarchy, lines []uint64) {
	t.Helper()
	for i, got := range []*Cache{h.L1D(), h.L1I(), h.LLC()} {
		want := ref.levels()[i]
		if got.Stats() != want.stats || usedLines(got) != want.used() {
			t.Fatalf("step %d (%s): level %d stats %+v used %d, reference %+v used %d",
				step, what, i, got.Stats(), usedLines(got), want.stats, want.used())
		}
		for _, o := range []Owner{0, 1} {
			if got.Occupancy(o) != want.occupancy(o) {
				t.Fatalf("step %d (%s): level %d occupancy differs", step, what, i)
			}
		}
		for _, l := range lines {
			set, tag := want.locate(l)
			w := want.way(set, tag)
			wantOwner := OwnerNone
			if w >= 0 {
				wantOwner = want.sets[set][w].owner
			}
			if got.Lookup(l) != (w >= 0) || ownerOfLine(got, l) != wantOwner {
				t.Fatalf("step %d (%s): level %d line %#x residency/owner differs", step, what, i, l)
			}
		}
		// Way for way: the same lines, in the same places.
		for set, ways := range want.sets {
			for w, ln := range ways {
				j := set*got.cfg.Ways + w
				k := got.keys[j]
				if (k != 0) != ln.valid || (ln.valid && (k^keyFlip != ln.tag || ownerOf(got.owners[j]) != ln.owner)) {
					t.Fatalf("step %d (%s): level %d set %d way %d = key %#x owner %d, reference %+v",
						step, what, i, set, w, k, ownerOf(got.owners[j]), ln)
				}
			}
		}
	}
}
