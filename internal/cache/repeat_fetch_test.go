package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refHierarchy is the reference the repeat-fetch path is checked
// against: the same three levels, but every access takes the full path
// through the public Cache API.
type refHierarchy struct {
	l1d, l1i, llc *Cache
	lat           Latencies
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{l1d: MustNew(cfg.L1D), l1i: MustNew(cfg.L1I), llc: MustNew(cfg.LLC), lat: cfg.Lat}
}

func (h *refHierarchy) Access(addr uint64, kind AccessKind, owner Owner) AccessResult {
	l1 := h.l1d
	if kind == Fetch {
		l1 = h.l1i
	}
	res := AccessResult{Kind: kind}
	if hit, _ := l1.Access(addr, owner); hit {
		h.llc.Access(addr, owner)
		res.L1Hit, res.Latency = true, h.lat.L1Hit
		return res
	}
	llcHit, ev := h.llc.Access(addr, owner)
	res.LLCHit = llcHit
	res.Latency = h.lat.Memory
	if llcHit {
		res.Latency = h.lat.LLCHit
	}
	if ev != nil {
		h.l1d.Flush(ev.Addr)
		h.l1i.Flush(ev.Addr)
	}
	return res
}

func (h *refHierarchy) Flush(addr uint64) (uint64, bool) {
	c1, c2, c3 := h.l1d.Flush(addr), h.l1i.Flush(addr), h.llc.Flush(addr)
	if c1 || c2 || c3 {
		return h.lat.Flush, true
	}
	return h.lat.FlushMiss, false
}

// TestRepeatFetchMatchesFullPath drives Hierarchy and the full-path
// reference in lockstep over seeded random operation sequences — biased
// towards repeated fetches of one line, the case the memo short-cuts —
// and compares every result, every level's counters and occupancy, and
// the residency and owner of every touched line after every step.
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
	h, ref := MustNewHierarchy(cfg), newRefHierarchy(cfg)
	rng := rand.New(rand.NewSource(seed))
	// A small line pool keeps sets contended, so repeat fetches meet
	// evictions, back-invalidations and owner changes.
	lines := make([]uint64, 40)
	for i := range lines {
		lines[i] = uint64(rng.Intn(96)) * 64
	}
	prev := lines[0]
	owner := Owner(0)
	for step := 0; step < 4000; step++ {
		addr := lines[rng.Intn(len(lines))] + uint64(rng.Intn(64))
		if rng.Intn(2) == 0 {
			addr = prev&^63 + uint64(rng.Intn(64)) // same line as the previous operation
		}
		if rng.Intn(8) == 0 {
			owner = 1 - owner
		}
		op := rng.Intn(20)
		var what string
		switch {
		case op < 12:
			what = "fetch"
			if got, want := h.Access(addr, Fetch, owner), ref.Access(addr, Fetch, owner); got != want {
				t.Fatalf("step %d: fetch %#x by %d = %+v, reference %+v", step, addr, owner, got, want)
			}
		case op < 15:
			what = "load"
			if got, want := h.Access(addr, Load, owner), ref.Access(addr, Load, owner); got != want {
				t.Fatalf("step %d: load %#x = %+v, reference %+v", step, addr, got, want)
			}
		case op < 17:
			what = "store"
			if got, want := h.Access(addr, Store, owner), ref.Access(addr, Store, owner); got != want {
				t.Fatalf("step %d: store %#x = %+v, reference %+v", step, addr, got, want)
			}
		case op < 19:
			what = "flush"
			gl, gc := h.Flush(addr)
			wl, wc := ref.Flush(addr)
			if gl != wl || gc != wc {
				t.Fatalf("step %d: flush %#x = (%d,%v), reference (%d,%v)", step, addr, gl, gc, wl, wc)
			}
		default:
			if rng.Intn(2) == 0 {
				what = "invalidate"
				h.InvalidateAll()
				for _, c := range []*Cache{ref.l1d, ref.l1i, ref.llc} {
					c.InvalidateAll()
				}
			} else {
				what = "fill"
				h.FillAll(owner)
				for _, c := range []*Cache{ref.l1d, ref.l1i, ref.llc} {
					c.FillAll(owner)
				}
			}
		}
		prev = addr
		for i, pair := range [][2]*Cache{{h.L1D(), ref.l1d}, {h.L1I(), ref.l1i}, {h.LLC(), ref.llc}} {
			got, want := pair[0], pair[1]
			if got.Stats() != want.Stats() || got.UsedLines() != want.UsedLines() {
				t.Fatalf("step %d (%s): level %d stats %+v used %d, reference %+v used %d",
					step, what, i, got.Stats(), got.UsedLines(), want.Stats(), want.UsedLines())
			}
			for _, o := range []Owner{0, 1} {
				if got.Occupancy(o) != want.Occupancy(o) {
					t.Fatalf("step %d (%s): level %d occupancy differs", step, what, i)
				}
			}
			for _, l := range lines {
				if got.Lookup(l) != want.Lookup(l) || got.OwnerOfLine(l) != want.OwnerOfLine(l) {
					t.Fatalf("step %d (%s): level %d line %#x residency/owner differs", step, what, i, l)
				}
			}
		}
	}
}
