package scan

import (
	"math"

	"repro/internal/dtw"
	"repro/internal/model"
	"repro/internal/similarity"
	"repro/internal/textdist"
)

// scratch is one scan worker's reusable state: the DTW rolling rows,
// the Levenshtein rows, the Keogh envelope deques and the one point-
// distance closure the DTW kernel calls. Everything a (target, entry)
// comparison needs beyond the memo cache lives here, so the warm scan
// path runs at zero allocations per comparison — pinned by
// TestScanZeroAllocWarmPath. A scratch belongs to exactly one worker
// goroutine at a time.
type scratch struct {
	dtw dtw.Scratch
	lev textdist.Scratch
	keo similarity.KeoghScratch

	// The current (target, entry) pair, rebound by compare before each
	// DTW. The dist closure below reads these fields instead of
	// capturing per-pair values, so no new closure is allocated per
	// comparison.
	t     *target
	eb    *model.CSTBBS
	eids  []uint32
	eprof *similarity.Profile
	eflat *model.FlatBBS

	dist dtw.DistFunc // built once per scratch by newScratch
	memo pairMemo     // worker-local L1 over the shared pair cache

	// Work-item trampoline: job is the scan the worker serves, w the
	// worker's index in it, runK the current item and runFn the closure
	// handed to panicsafe.Do, built once per scratch, so dispatch
	// allocates nothing per item or per scan.
	job   *scanJob
	w     int
	runK  int
	runFn func() error

	// Pruned flat scans: the bounds of this worker's slice and its visit
	// order (boundSlice), reused across scans.
	lbs, kims []float64
	ord       []int

	// Indexed-scan working sets (scanIndexed): per-cluster Kim bounds,
	// exact prototype distances, the cluster visit order and a member
	// visit order. Sized once per scratch and reused across targets;
	// the indexed path is not part of the zero-alloc pin, these just
	// keep the steady state allocation-free.
	protoKim  []float64
	protoDist []float64
	protoOrd  []int
	memOrd    []int
}

// sizeIndex (re)sizes the indexed-scan working sets for k clusters.
func (s *scratch) sizeIndex(k int) {
	if cap(s.protoKim) < k {
		s.protoKim = make([]float64, k)
		s.protoDist = make([]float64, k)
		s.protoOrd = make([]int, k)
	}
	s.protoKim = s.protoKim[:k]
	s.protoDist = s.protoDist[:k]
	s.protoOrd = s.protoOrd[:k]
}

// newScratch builds a worker scratch bound to this engine: its dist
// closure serves D_IS from the worker-local pair memo backed by the
// shared cache — over the flattened symbol arrays when both sides
// flattened, over the original token strings otherwise — and mixes in
// the exact D_CSP term, mirroring similarity.DistanceOpts
// operation-for-operation.
func (e *Engine) newScratch() *scratch {
	s := &scratch{}
	s.runFn = func() error { return s.job.runItem(s.runK, s) }
	s.dist = func(i, j int) float64 {
		var dis float64
		ia, ib := s.t.ids[i], s.eids[j]
		if ia != noID && ib != noID && s.t.flat != nil && s.eflat != nil {
			switch lo, hi := ia, ib; {
			case ia == ib:
				// Same interned block: dis stays 0.
			default:
				if lo > hi {
					lo, hi = hi, lo
				}
				k := uint64(lo)<<32 | uint64(hi)
				var ok bool
				if dis, ok = s.memo.get(k); !ok {
					dis = e.cache.normalizedFlat(ia, s.t.flat.Block(i), ib, s.eflat.Block(j), &s.lev)
					s.memo.put(k, dis)
				}
			}
		} else {
			dis = e.cache.normalized(ia, s.t.bbs.Seq[i].NormInsns, ib, s.eb.Seq[j].NormInsns)
		}
		dcsp := s.t.prof.Deltas[i] - s.eprof.Deltas[j]
		if dcsp < 0 {
			dcsp = -dcsp
		}
		return e.sim.ISWeight*dis + e.sim.CSPWeight*dcsp
	}
	return s
}

// pairMemo is a worker-local, lock-free read-through layer over the
// shared DistCache pair memo. The DTW inner loop touches the same few
// thousand interned block pairs over and over; answering them from an
// open-addressed table owned by one goroutine removes the RWMutex and
// hit-counter traffic from the hot cell path. Keys are the same
// order-normalized (lo<<32|hi) intern-id pairs the shared cache uses,
// so a value is a pure function of the key and the table never needs
// invalidation; it simply mirrors a slice of the shared cache. Slots
// store key+1 so the zero value marks an empty slot (a key of 2^64-1
// would collide, but that would require ia == ib, which is answered
// before the memo).
type pairMemo struct {
	keys []uint64
	vals []float64
	n    int
}

// pairMemoMaxSlots caps the per-worker table (2 MiB of slots). A full
// table stops inserting and keeps serving its existing entries; the
// shared cache remains the backing store for the long tail.
const pairMemoMaxSlots = 1 << 17

func (p *pairMemo) get(k uint64) (float64, bool) {
	if len(p.keys) == 0 {
		return 0, false
	}
	mask := uint64(len(p.keys) - 1)
	for i := pairMemoHash(k) & mask; ; i = (i + 1) & mask {
		stored := p.keys[i]
		if stored == 0 {
			return 0, false
		}
		if stored == k+1 {
			return p.vals[i], true
		}
	}
}

func (p *pairMemo) put(k uint64, v float64) {
	if len(p.keys) == 0 {
		p.keys = make([]uint64, 1<<10)
		p.vals = make([]float64, 1<<10)
	} else if p.n >= len(p.keys)-len(p.keys)/4 {
		if len(p.keys) >= pairMemoMaxSlots {
			return
		}
		p.grow()
	}
	mask := uint64(len(p.keys) - 1)
	for i := pairMemoHash(k) & mask; ; i = (i + 1) & mask {
		switch p.keys[i] {
		case 0:
			p.keys[i], p.vals[i] = k+1, v
			p.n++
			return
		case k + 1:
			return
		}
	}
}

func (p *pairMemo) grow() {
	oldK, oldV := p.keys, p.vals
	p.keys = make([]uint64, 2*len(oldK))
	p.vals = make([]float64, 2*len(oldK))
	mask := uint64(len(p.keys) - 1)
	for i, stored := range oldK {
		if stored == 0 {
			continue
		}
		for j := pairMemoHash(stored-1) & mask; ; j = (j + 1) & mask {
			if p.keys[j] == 0 {
				p.keys[j], p.vals[j] = stored, oldV[i]
				break
			}
		}
	}
}

// pairMemoHash is the splitmix64 finalizer: cheap, and enough mixing
// that sequential intern ids spread across the table.
func pairMemoHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// compare computes the normalized CST-BBS distance of target vs entry
// ei, mirroring similarity.BBSDistance operation-for-operation (same
// float expressions, same DTW recurrence, abandoned through
// dtw.DistanceAbandonScratch once the raw sum passes cutoff·(n+m-1))
// but with the Levenshtein term served from the shared cache and every
// scratch buffer reused from s. A +Inf cutoff yields the exact
// distance; a finite cutoff may return (lower bound, true) instead.
func (e *Engine) compare(t *target, ei int, cutoff float64, s *scratch) (float64, bool) {
	eb := e.models[ei]
	n, m := t.bbs.Len(), eb.Len()
	switch {
	case n == 0 && m == 0:
		return 0, false
	case n == 0 || m == 0:
		return math.Inf(1), false
	}
	s.t, s.eb, s.eids, s.eprof, s.eflat = t, eb, e.ids[ei], e.profs[ei], e.flats[ei]
	rawCutoff := cutoff * float64(n+m-1)
	sum, pathLen, abandoned := dtw.DistanceAbandonScratch(n, m, s.dist, dtw.Options{Window: e.sim.Window}, rawCutoff, &s.dtw)
	if abandoned {
		return sum / float64(n+m-1), true
	}
	return sum / float64(pathLen), false
}
