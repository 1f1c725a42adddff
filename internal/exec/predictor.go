package exec

// BranchPredictor is a classic 2-bit-saturating-counter direction
// predictor with a branch target buffer. The direction counters are a
// PC-indexed table (aliasing branches share a counter). The BTB has one
// entry per branch PC — the machine numbers its branches densely when
// it is built — so targets never alias between PCs or get evicted,
// while branches of different processes at one PC share their entry.
// Training it and then diverging is exactly how the Spectre-v1 PoCs in
// internal/attacks steer transient execution past their bounds checks.
type BranchPredictor struct {
	counters []uint8 // 2-bit saturating counters, weakly-not-taken init
	btb      []btbEntry
	mask     uint64
}

// btbEntry is one BTB entry: the last resolved target of its branch.
type btbEntry struct {
	target uint64
	valid  bool
}

// init sets up a predictor with the given direction-table size (a power
// of two; 512 when size <= 0) and a BTB of the given number of branch
// entries, every counter weakly not-taken and every BTB entry empty. It
// reuses the tables' storage of an earlier init.
func (bp *BranchPredictor) init(size, branches int) {
	if size <= 0 {
		size = 512
	}
	// Round up to a power of two.
	n := 1
	for n < size {
		n <<= 1
	}
	c := resize(bp.counters, n)
	for i := range c {
		c[i] = 1 // weakly not-taken
	}
	*bp = BranchPredictor{counters: c, btb: resize(bp.btb, branches), mask: uint64(n - 1)}
}

func (bp *BranchPredictor) idx(pc uint64) uint64 { return (pc >> 2) & bp.mask }

// PredictTaken returns the predicted direction for the branch at pc.
func (bp *BranchPredictor) PredictTaken(pc uint64) bool {
	return bp.counters[bp.idx(pc)] >= 2
}

// Update trains the predictor with the resolved outcome of the branch at
// pc, whose BTB entry is b. target is the address the branch went to
// when taken. It returns mispredicted (direction was wrong) and btbMiss
// (taken branch whose target was absent from the BTB — the Branch Load
// Miss event).
func (bp *BranchPredictor) Update(pc uint64, b int, taken bool, target uint64) (mispredicted, btbMiss bool) {
	i := bp.idx(pc)
	predicted := bp.counters[i] >= 2
	mispredicted = predicted != taken
	if taken {
		if bp.counters[i] < 3 {
			bp.counters[i]++
		}
		e := &bp.btb[b]
		btbMiss = !e.valid
		*e = btbEntry{target: target, valid: true}
	} else if bp.counters[i] > 0 {
		bp.counters[i]--
	}
	return mispredicted, btbMiss
}

// updateIndirect records the resolved target of the indirect branch
// with BTB entry b. It returns the previously predicted target (the
// entry before the update) and whether one existed — when it existed
// and differs from the actual target, the front end speculated down the
// stale target (the Spectre-v2 branch-target-injection window).
func (bp *BranchPredictor) updateIndirect(b int, target uint64) (predicted uint64, hadPrediction bool) {
	e := &bp.btb[b]
	predicted, hadPrediction = e.target, e.valid
	*e = btbEntry{target: target, valid: true}
	return predicted, hadPrediction
}
