package exec

// BranchPredictor is a classic 2-bit-saturating-counter direction
// predictor with a branch target buffer. The direction counters are a
// PC-indexed table (aliasing branches share a counter); the BTB is an
// unbounded map keyed by the exact branch PC, so targets never alias or
// get evicted. Training it and then diverging is exactly how the
// Spectre-v1 PoCs in internal/attacks steer transient execution past
// their bounds checks.
type BranchPredictor struct {
	counters []uint8 // 2-bit saturating counters, weakly-not-taken init
	btb      map[uint64]uint64
	mask     uint64
}

// NewBranchPredictor builds a predictor with the given table size (a
// power of two; 512 when size <= 0).
func NewBranchPredictor(size int) *BranchPredictor {
	if size <= 0 {
		size = 512
	}
	// Round up to a power of two.
	n := 1
	for n < size {
		n <<= 1
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 1 // weakly not-taken
	}
	return &BranchPredictor{
		counters: c,
		btb:      make(map[uint64]uint64),
		mask:     uint64(n - 1),
	}
}

func (bp *BranchPredictor) idx(pc uint64) uint64 { return (pc >> 2) & bp.mask }

// PredictTaken returns the predicted direction for the branch at pc.
func (bp *BranchPredictor) PredictTaken(pc uint64) bool {
	return bp.counters[bp.idx(pc)] >= 2
}

// PredictTarget returns the BTB target for pc and whether one exists.
func (bp *BranchPredictor) PredictTarget(pc uint64) (uint64, bool) {
	t, ok := bp.btb[pc]
	return t, ok
}

// Update trains the predictor with the resolved outcome of the branch at
// pc. target is the address the branch went to when taken. It returns
// mispredicted (direction was wrong) and btbMiss (taken branch whose
// target was absent from the BTB — the Branch Load Miss event).
func (bp *BranchPredictor) Update(pc uint64, taken bool, target uint64) (mispredicted, btbMiss bool) {
	i := bp.idx(pc)
	predicted := bp.counters[i] >= 2
	mispredicted = predicted != taken
	if taken {
		if bp.counters[i] < 3 {
			bp.counters[i]++
		}
		if _, ok := bp.btb[pc]; !ok {
			btbMiss = true
		}
		bp.btb[pc] = target
	} else if bp.counters[i] > 0 {
		bp.counters[i]--
	}
	return mispredicted, btbMiss
}

// UpdateIndirect records the resolved target of an indirect branch at
// pc. It returns the previously predicted target (the BTB entry before
// the update) and whether one existed — when it existed and differs from
// the actual target, the front end speculated down the stale target
// (the Spectre-v2 branch-target-injection window).
func (bp *BranchPredictor) UpdateIndirect(pc, target uint64) (predicted uint64, hadPrediction bool) {
	prev, ok := bp.btb[pc]
	bp.btb[pc] = target
	return prev, ok
}

// Reset restores the initial weakly-not-taken state and clears the BTB.
func (bp *BranchPredictor) Reset() {
	for i := range bp.counters {
		bp.counters[i] = 1
	}
	bp.btb = make(map[uint64]uint64)
}
