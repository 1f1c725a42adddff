// Package dtw implements the Dynamic Time Warping algorithm (Berndt &
// Clifford) that SCAGuard adapts for CST-BBS similarity comparison
// (Section III-B2 of the paper). It is generic over the element type via
// a caller-provided point distance function and supports an optional
// Sakoe-Chiba band to bound warping.
//
// Three evaluation strategies are offered, all computing the same
// banded sum-of-costs optimum:
//
//   - Path keeps the full O(n*m) cost matrix and returns one optimal
//     warping path — used when the alignment itself is the product
//     (explanations, `scaguard compare -explain`).
//   - DistanceWithPathLen runs in O(m) memory and additionally returns
//     the length of exactly the path Path's backtracking would choose,
//     which is what the normalized CST-BBS distance divides by.
//   - DistanceAbandonScratch adds early abandoning for repository
//     scans: given an upper bound on the acceptable total cost, it stops
//     as soon as every reachable cell of a row exceeds the bound, i.e.
//     as soon as it holds a proof that the final sum must exceed the
//     bound. It runs in caller-owned scratch rows.
//
// The early-abandon contract requires the point distance to be
// non-negative; every row of the matrix is crossed by every admissible
// warping path, so a row whose cheapest prefix already exceeds the
// cutoff can only be completed at a higher cost.
package dtw

import "math"

// DistFunc measures the distance between element i of the first sequence
// and element j of the second.
type DistFunc func(i, j int) float64

// Options tunes the alignment.
type Options struct {
	// Window is the Sakoe-Chiba band half-width; 0 disables the band
	// (full alignment). The band is widened automatically to at least
	// |n-m| so an alignment always exists.
	Window int
}

// Distance computes the DTW distance between sequences of lengths n and
// m under the point distance d, using the classic sum-of-costs
// formulation with unit steps (match, insert, delete). Two empty
// sequences have distance 0; an empty vs non-empty alignment has
// distance +Inf (no admissible warping path).
func Distance(n, m int, d DistFunc, opts Options) float64 {
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
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
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
		for j := lo; j <= hi; j++ {
			cost := d(i-1, j-1)
			best := prev[j-1] // match
			if prev[j] < best {
				best = prev[j] // insertion
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// DistanceWithPathLen computes the DTW distance like Distance and
// additionally returns the length of the optimal warping path that
// Path's backtracking would reconstruct (same tie-breaking: diagonal
// first, then insertion, then deletion), without materializing the
// O(n*m) cost matrix. The pair (sum, pathLen) therefore exactly matches
// Path's (sum, len(path)); callers that only need the normalized
// distance sum/pathLen can use this O(m)-memory form.
//
// Two empty sequences yield (0, 0); an empty vs non-empty alignment
// yields (+Inf, 0).
func DistanceWithPathLen(n, m int, d DistFunc, opts Options) (float64, int) {
	sum, pathLen, _ := distanceAbandon(n, m, d, opts, math.Inf(1))
	return sum, pathLen
}

// distanceAbandon is DistanceAbandonScratch in fresh scratch rows.
func distanceAbandon(n, m int, d DistFunc, opts Options, cutoff float64) (sum float64, pathLen int, abandoned bool) {
	return DistanceAbandonScratch(n, m, d, opts, cutoff, &Scratch{})
}

// Path additionally returns one optimal warping path as (i,j) index
// pairs, using a full cost matrix (O(n*m) memory).
func Path(n, m int, d DistFunc, opts Options) (float64, [][2]int) {
	switch {
	case n == 0 && m == 0:
		return 0, nil
	case n == 0 || m == 0:
		return math.Inf(1), nil
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
	// (n+1) x (m+1) cost matrix.
	cost := make([][]float64, n+1)
	for i := range cost {
		cost[i] = make([]float64, m+1)
		for j := range cost[i] {
			cost[i][j] = inf
		}
	}
	cost[0][0] = 0
	for i := 1; i <= n; i++ {
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
		for j := lo; j <= hi; j++ {
			c := d(i-1, j-1)
			best := cost[i-1][j-1]
			if cost[i-1][j] < best {
				best = cost[i-1][j]
			}
			if cost[i][j-1] < best {
				best = cost[i][j-1]
			}
			cost[i][j] = c + best
		}
	}
	// Backtrack.
	var path [][2]int
	i, j := n, m
	for i > 0 && j > 0 {
		path = append(path, [2]int{i - 1, j - 1})
		diag, up, left := cost[i-1][j-1], cost[i-1][j], cost[i][j-1]
		switch {
		case diag <= up && diag <= left:
			i, j = i-1, j-1
		case up <= left:
			i--
		default:
			j--
		}
	}
	// Reverse in place.
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return cost[n][m], path
}

// Similarity converts a DTW distance D in [0, +inf) to the paper's
// similarity score 1/(D+1) in (0, 1]; an infinite distance scores 0.
func Similarity(d float64) float64 {
	if math.IsInf(d, 1) {
		return 0
	}
	return 1 / (d + 1)
}
