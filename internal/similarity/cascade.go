package similarity

import "math"

// The lower-bound cascade (docs/PERFORMANCE.md): three progressively
// tighter, progressively costlier lower bounds on BBSDistance, adapted
// from the UCR-suite playbook for time-series subsequence search to the
// CST-BBS point distance D = ISW·D_IS + CSP·D_CSP:
//
//	tier 1  LowerBoundKim    O(1)        range gap + warping-path corners
//	tier 2  LowerBoundKeogh  O(n+m)      per-row band envelopes (monotone deques)
//	tier 3  LowerBound       O((n+m)·w)  exact per-row band minima (similarity.go)
//
// Every tier satisfies LB(a,b) ≤ BBSDistance(a,b) — property-tested and
// fuzzed in cascade_test.go — so the scan engine may skip an entry the
// moment any tier exceeds the running best, and escalate to the next
// tier only for entries the cheaper tiers could not prune. The tiers
// are individually sound but not mutually ordered; the scan keeps a
// running maximum, which is again a valid bound (max of lower bounds)
// and makes the cascade monotone by construction (cascade_test.go pins
// that composition).
//
// All tiers share two per-cell underestimates of the point distance:
// D_CSP(i,j) = |Δi − Δj| exactly, and D_IS(i,j) ≥ ||a|−|b||/max(|a|,|b|)
// (an edit script must at least insert or delete the length difference).
//
// Every bound is algebraically ≤ the exact distance in real arithmetic,
// but the DTW's float64 accumulation can round the exact distance a few
// ulps below an independently computed bound (e.g. seven additions of
// 0.4 divided by 7 land one ulp under 0.4). lbSafety shrinks each
// finite bound by one part in 10^9 — orders of magnitude above the
// worst accumulated rounding for any realistic model length (k
// additions err by ≲ k·2⁻⁵³ relative, so ~10⁻¹² at k = 10⁴) and orders
// of magnitude below any distance gap worth pruning — so the float-
// level invariant LB(a,b) ≤ BBSDistance(a,b) holds bit-wise. The fuzz
// harness (FuzzLowerBoundCascade) hunts for violations.
const lbSafety = 1 - 1e-9

// LBSafety exports the bound safety margin for other layers that derive
// prune decisions from float comparisons against these bounds (the
// metric index's cluster gate in internal/scan applies the same margin
// to its triangle-inequality estimate, so every layer errs on the same
// conservative side).
const LBSafety = lbSafety

// LowerBoundKim is the O(1) cascade tier, from the Profile aggregates
// alone. Two observations, the larger wins:
//
//   - The normalized distance is a mean per-aligned-pair cost, and every
//     aligned pair costs at least the gap between the two profiles'
//     value ranges (zero when the ranges overlap).
//   - Every admissible warping path visits cells (0,0) and (n−1,m−1), so
//     when those are distinct their cost bounds sum into the raw DTW sum,
//     which normalizes by the maximal path length n+m−1.
//
// Like LowerBound, it is +Inf when exactly one model is empty and 0 when
// both are.
func LowerBoundKim(a, b *Profile, opts Options) float64 {
	opts = opts.withDefaults()
	n, m := len(a.Deltas), len(b.Deltas)
	switch {
	case n == 0 && m == 0:
		return 0
	case n == 0 || m == 0:
		return math.Inf(1)
	}
	bound := opts.ISWeight*lenRangeGap(a, b) + opts.CSPWeight*deltaRangeGap(a, b)
	first := cellBound(a, 0, b, 0, opts)
	corners := first
	if n > 1 || m > 1 {
		corners = (first + cellBound(a, n-1, b, m-1, opts)) / float64(n+m-1)
	}
	if corners > bound {
		bound = corners
	}
	return bound * lbSafety
}

// cellBound underestimates the point distance of cell (i,j) from the
// profiles alone (exact D_CSP, length-difference floor for D_IS).
func cellBound(a *Profile, i int, b *Profile, j int, opts Options) float64 {
	return opts.ISWeight*lenBound(a.Lens[i], b.Lens[j]) + opts.CSPWeight*absDelta(a.Deltas[i], b.Deltas[j])
}

// lenRangeGap lower-bounds lenBound(la, lb) over every pair drawn from
// the two profiles' length ranges: zero when the ranges overlap, else
// derived from the closest pair (the minimum of (la−lb)/la over la ≥
// aMin > bMax ≥ lb is attained at la = aMin, lb = bMax).
func lenRangeGap(a, b *Profile) float64 {
	switch {
	case a.MinLen > b.MaxLen:
		return float64(a.MinLen-b.MaxLen) / float64(a.MinLen)
	case b.MinLen > a.MaxLen:
		return float64(b.MinLen-a.MaxLen) / float64(b.MinLen)
	}
	return 0
}

// deltaRangeGap lower-bounds |Δa − Δb| over the two delta ranges: the
// gap between the intervals, zero when they overlap.
func deltaRangeGap(a, b *Profile) float64 {
	switch {
	case a.MinDelta > b.MaxDelta:
		return a.MinDelta - b.MaxDelta
	case b.MinDelta > a.MaxDelta:
		return b.MinDelta - a.MaxDelta
	}
	return 0
}

// lenToInterval lower-bounds lenBound(l, x) over x in [lo, hi]: the
// normalized length gap from l to the interval, zero inside it.
func lenToInterval(l, lo, hi int) float64 {
	switch {
	case l > hi:
		return float64(l-hi) / float64(l)
	case l < lo:
		return float64(lo-l) / float64(lo)
	}
	return 0
}

// deltaToInterval lower-bounds |x − d| over d in [lo, hi].
func deltaToInterval(x, lo, hi float64) float64 {
	switch {
	case x > hi:
		return x - hi
	case x < lo:
		return lo - x
	}
	return 0
}

// KeoghScratch holds the monotone-deque state LowerBoundKeogh reuses
// across calls (allocation-free once grown to the working model size).
// Not safe for concurrent use; the zero value is ready.
type KeoghScratch struct {
	maxD, minD, maxL, minL deque
}

// deque is a monotone index deque over a profile column range: indices
// enter at the back in increasing order and leave at the front as the
// band window slides past them. Since both window edges only ever move
// forward, a plain slice with a head cursor suffices (no ring).
type deque struct {
	idx []int32
	h   int
}

func (d *deque) reset(n int) {
	if cap(d.idx) < n {
		d.idx = make([]int32, 0, n)
	}
	d.idx = d.idx[:0]
	d.h = 0
}

func (d *deque) front() int32 { return d.idx[d.h] }

// expire drops front indices below lo (columns that left the window).
func (d *deque) expire(lo int32) {
	for d.h < len(d.idx) && d.idx[d.h] < lo {
		d.h++
	}
}

// pushMaxF maintains a decreasing-deltas deque (front = window max).
// Equal values pop in favor of the newer index, which expires later.
func (d *deque) pushMaxF(xs []float64, j int32) {
	for len(d.idx) > d.h && xs[d.idx[len(d.idx)-1]] <= xs[j] {
		d.idx = d.idx[:len(d.idx)-1]
	}
	d.idx = append(d.idx, j)
}

func (d *deque) pushMinF(xs []float64, j int32) {
	for len(d.idx) > d.h && xs[d.idx[len(d.idx)-1]] >= xs[j] {
		d.idx = d.idx[:len(d.idx)-1]
	}
	d.idx = append(d.idx, j)
}

func (d *deque) pushMaxI(xs []int, j int32) {
	for len(d.idx) > d.h && xs[d.idx[len(d.idx)-1]] <= xs[j] {
		d.idx = d.idx[:len(d.idx)-1]
	}
	d.idx = append(d.idx, j)
}

func (d *deque) pushMinI(xs []int, j int32) {
	for len(d.idx) > d.h && xs[d.idx[len(d.idx)-1]] >= xs[j] {
		d.idx = d.idx[:len(d.idx)-1]
	}
	d.idx = append(d.idx, j)
}

// LowerBoundKeogh is the O(n+m) cascade tier: for each row of the
// banded cost matrix it lower-bounds the cheapest admissible cell by
// projecting the row's delta and length onto the band window's value
// envelopes — min(f+g) ≥ min f + min g, and each term's window minimum
// is the distance to the window's value interval. The envelopes slide
// with the band, so monotone deques keep the whole sweep linear however
// wide the band is (the effective band grows to |n−m| for mismatched
// lengths — exactly where the O((n+m)·w) tier-3 bound gets expensive).
// Both orientations are summed and the tighter kept, as in LowerBound.
//
// Soundness: every admissible warping path visits every row, each
// row's contribution underestimates its cheapest band cell, and the
// raw sum normalizes by the maximal path length n+m−1. By construction
// each row term also underestimates LowerBound's exact window minimum,
// so tier 3 can only tighten tier 2.
func LowerBoundKeogh(a, b *Profile, opts Options, s *KeoghScratch) float64 {
	opts = opts.withDefaults()
	n, m := len(a.Deltas), len(b.Deltas)
	switch {
	case n == 0 && m == 0:
		return 0
	case n == 0 || m == 0:
		return math.Inf(1)
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
	sum := keoghRows(a, b, opts, w, s)
	if s2 := keoghRows(b, a, opts, w, s); s2 > sum {
		sum = s2
	}
	return sum / float64(n+m-1) * lbSafety
}

// keoghRows sums the per-row envelope bounds of a's rows against b's
// band windows. w <= 0 means no band: the window is all of b, so the
// profile aggregates are the envelope.
func keoghRows(a, b *Profile, opts Options, w int, s *KeoghScratch) float64 {
	n, m := len(a.Deltas), len(b.Deltas)
	var sum float64
	if w <= 0 {
		for i := 0; i < n; i++ {
			sum += opts.ISWeight*lenToInterval(a.Lens[i], b.MinLen, b.MaxLen) +
				opts.CSPWeight*deltaToInterval(a.Deltas[i], b.MinDelta, b.MaxDelta)
		}
		return sum
	}
	s.maxD.reset(m)
	s.minD.reset(m)
	s.maxL.reset(m)
	s.minL.reset(m)
	pushed := 0 // 0-based column frontier (exclusive)
	for i := 1; i <= n; i++ {
		lo, hi := i-w, i+w
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		for ; pushed < hi; pushed++ {
			j := int32(pushed)
			s.maxD.pushMaxF(b.Deltas, j)
			s.minD.pushMinF(b.Deltas, j)
			s.maxL.pushMaxI(b.Lens, j)
			s.minL.pushMinI(b.Lens, j)
		}
		lo0 := int32(lo - 1)
		s.maxD.expire(lo0)
		s.minD.expire(lo0)
		s.maxL.expire(lo0)
		s.minL.expire(lo0)
		sum += opts.ISWeight*lenToInterval(a.Lens[i-1], b.Lens[s.minL.front()], b.Lens[s.maxL.front()]) +
			opts.CSPWeight*deltaToInterval(a.Deltas[i-1], b.Deltas[s.minD.front()], b.Deltas[s.maxD.front()])
	}
	return sum
}
