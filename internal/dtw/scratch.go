package dtw

import "math"

// Scratch holds the rolling rows the O(m)-memory DTW evaluations use.
// DistanceAbandonScratch reuses them across calls, so a scan worker that
// scores thousands of (target, entry) pairs allocates its DTW state once
// instead of four slices per comparison — the allocation-free warm path
// pinned by TestScanZeroAllocWarmPath in internal/scan.
//
// A Scratch is not safe for concurrent use; give each worker its own.
// The zero value is ready.
type Scratch struct {
	prev, cur       []float64
	prevLen, curLen []int
}

// resize makes every row at least m+1 long, growing geometrically so a
// stream of mixed-size comparisons settles on the largest and stops
// allocating.
func (s *Scratch) resize(m int) {
	if cap(s.prev) >= m+1 {
		s.prev = s.prev[:m+1]
		s.cur = s.cur[:m+1]
		s.prevLen = s.prevLen[:m+1]
		s.curLen = s.curLen[:m+1]
		return
	}
	n := 2 * (m + 1)
	s.prev = make([]float64, m+1, n)
	s.cur = make([]float64, m+1, n)
	s.prevLen = make([]int, m+1, n)
	s.curLen = make([]int, m+1, n)
}

// DistanceAbandonScratch is DistanceWithPathLen with early abandoning:
// it stops — returning abandoned=true — as soon as the cheapest
// reachable cell of a row exceeds cutoff, which proves that the final
// sum-of-costs must exceed cutoff. The point distance must be
// non-negative for the proof to hold (all CST distances are).
//
// When abandoned, the returned sum is the cheapest cost of the row that
// triggered the abandon — a lower bound on the true DTW sum, strictly
// greater than cutoff — and pathLen is 0. When the alignment completes,
// the exact (sum, pathLen) pair is returned exactly as from
// DistanceWithPathLen; a cutoff of +Inf never abandons.
//
// It runs in caller-owned scratch rows and allocates nothing once the
// scratch has grown to the working row width.
func DistanceAbandonScratch(n, m int, d DistFunc, opts Options, cutoff float64, s *Scratch) (float64, int, bool) {
	switch {
	case n == 0 && m == 0:
		return 0, 0, false
	case n == 0 || m == 0:
		return math.Inf(1), 0, false
	}
	w := opts.Window
	if w > 0 {
		diff := n - m
		if diff < 0 {
			diff = -diff
		}
		if w < diff {
			w = diff
		}
	}
	inf := math.Inf(1)
	s.resize(m)
	prev, cur := s.prev, s.cur
	prevLen, curLen := s.prevLen, s.curLen
	for j := range prev {
		prev[j] = inf
		prevLen[j] = 0
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo, hi := 1, m
		if w > 0 {
			lo = i - w
			if lo < 1 {
				lo = 1
			}
			hi = i + w
			if hi > m {
				hi = m
			}
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := d(i-1, j-1)
			diag, up, left := prev[j-1], prev[j], cur[j-1]
			// Predecessor choice mirrors Path's backtracking exactly so
			// the tracked path length matches len(Path(...)).
			var best float64
			var blen int
			switch {
			case diag <= up && diag <= left:
				best, blen = diag, prevLen[j-1]
			case up <= left:
				best, blen = up, prevLen[j]
			default:
				best, blen = left, curLen[j-1]
			}
			cur[j] = cost + best
			curLen[j] = blen + 1
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > cutoff {
			// Every admissible path crosses row i at one of these cells
			// and point costs are non-negative, so the final sum is at
			// least rowMin > cutoff: abandon with the proof in hand.
			return rowMin, 0, true
		}
		prev, cur = cur, prev
		prevLen, curLen = curLen, prevLen
	}
	return prev[m], prevLen[m], false
}
