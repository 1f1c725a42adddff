// Package similarity implements SCAGuard's similarity comparison
// (Section III-B of the paper): the per-CST distance combining a
// normalized-instruction Levenshtein term (D_IS) with a cache-state-pair
// term (D_CSP), the DTW alignment of two CST-BBSes, and the conversion
// of the DTW distance into a similarity score 1/(D+1).
//
// For repository scans (internal/scan) the package additionally exposes
// the pruning primitives documented in docs/PERFORMANCE.md:
//
//   - LowerBound computes a cheap O((n+m)·w) lower bound on BBSDistance
//     from per-block cache deltas and instruction counts alone, without
//     running DTW or Levenshtein. The contract is LowerBound(a,b) ≤
//     BBSDistance(a,b) for every pair, so an entry whose bound already
//     exceeds the best distance found so far can be skipped outright.
//
// The bounds are conservative: they may fail to prune, but they never
// misreport a distance below the true one. The early-abandoning
// distance itself lives in the scan engine (internal/scan), which runs
// BBSDistance's recurrence through dtw.DistanceAbandonScratch over memoized
// Levenshtein terms.
package similarity

import (
	"math"

	"repro/internal/dtw"
	"repro/internal/model"
	"repro/internal/textdist"
)

// Options tunes the comparison.
type Options struct {
	// Window is the Sakoe-Chiba band half-width for the DTW alignment;
	// 0 aligns without a band.
	Window int
	// ISWeight and CSPWeight weight the two distance terms; both default
	// to 0.5 (the paper's arithmetic mean). They are exposed for the
	// ablation benchmarks.
	ISWeight  float64
	CSPWeight float64
}

// DefaultOptions returns the paper's configuration: equal term weights
// and a Sakoe-Chiba band of 3 — attack variants align near the diagonal
// while unrelated programs would need the extreme warps the band forbids.
func DefaultOptions() Options {
	return Options{ISWeight: 0.5, CSPWeight: 0.5, Window: 3}
}

// WithDefaults fills the zero value in: when BOTH weights are zero they
// fall back to the paper's 0.5/0.5 mean. A single zero weight is left
// alone on purpose — Options{ISWeight: 0, CSPWeight: 1} means "cache
// semantics only" (and symmetrically for the instruction term), the
// configuration the ablation benchmarks rely on.
func (o Options) WithDefaults() Options {
	if o.ISWeight == 0 && o.CSPWeight == 0 {
		o.ISWeight, o.CSPWeight = 0.5, 0.5
	}
	return o
}

func (o Options) withDefaults() Options { return o.WithDefaults() }

// DIS returns the normalized Levenshtein distance between the
// (normalized) instruction sequences of two CSTs.
func DIS(a, b model.CST) float64 {
	return textdist.Normalized(a.NormInsns, b.NormInsns)
}

// DCSP returns |P2 - P1| where Pi = (|AO-AO'| + |IO-IO'|)/2 measures the
// magnitude of cache change of CST i.
func DCSP(a, b model.CST) float64 {
	d := a.Delta() - b.Delta()
	if d < 0 {
		d = -d
	}
	return d
}

// DistanceOpts returns the weighted CST distance.
func DistanceOpts(a, b model.CST, opts Options) float64 {
	opts = opts.withDefaults()
	return opts.ISWeight*DIS(a, b) + opts.CSPWeight*DCSP(a, b)
}

// BBSDistance aligns two CST-BBSes with DTW using Distance as the point
// metric and returns the accumulated cost normalized by the warping
// path's length, in [0, 1] (or +Inf when exactly one model is empty).
//
// The normalization is our one calibration of the paper's algorithm:
// raw DTW sums grow with model size, so a fixed similarity threshold
// would mean different things for a 10-block and a 30-block model, and
// longer repository models would systematically attract targets.
// Dividing by the optimal path's length makes the distance a mean
// per-aligned-pair cost: a true variant pair sits near 0.1, an
// attack/benign pair near 0.5, reproducing the paper's score bands
// (S1 high … S5 low) and its 30%-60% threshold plateau with no length
// bias. Two empty models are identical (distance 0); an empty model
// against a non-empty one is infinitely distant.
func BBSDistance(a, b *model.CSTBBS, opts Options) float64 {
	opts = opts.withDefaults()
	d := func(i, j int) float64 { return DistanceOpts(a.Seq[i], b.Seq[j], opts) }
	// O(min-row) memory: DistanceWithPathLen reproduces dtw.Path's
	// (sum, path length) pair exactly without the full cost matrix.
	sum, pathLen := dtw.DistanceWithPathLen(a.Len(), b.Len(), d, dtw.Options{Window: opts.Window})
	if pathLen == 0 {
		return sum // 0 for both empty, +Inf for one empty
	}
	return sum / float64(pathLen)
}

// Profile caches the per-block scalars the lower-bound cascade
// consumes: the cache deltas and the normalized-instruction counts of
// each CST-BBS entry, plus their ranges (the O(1) tier's aggregates).
// Profiles are immutable and safe to share across goroutines.
type Profile struct {
	Deltas []float64
	Lens   []int

	// Aggregate ranges over Deltas and Lens, precomputed at profile
	// build so LowerBoundKim costs O(1) per entry. Zero-length profiles
	// leave them at their zero values (never read: the empty cases
	// short-circuit first).
	MinDelta, MaxDelta float64
	MinLen, MaxLen     int
}

// NewProfile extracts a Profile from a behavior model.
func NewProfile(s *model.CSTBBS) *Profile {
	p := &Profile{
		Deltas: make([]float64, s.Len()),
		Lens:   make([]int, s.Len()),
	}
	for i, c := range s.Seq {
		p.Deltas[i] = c.Delta()
		p.Lens[i] = len(c.NormInsns)
	}
	p.aggregate()
	return p
}

// aggregate fills the range fields from Deltas and Lens.
func (p *Profile) aggregate() {
	if len(p.Deltas) == 0 {
		return
	}
	p.MinDelta, p.MaxDelta = p.Deltas[0], p.Deltas[0]
	p.MinLen, p.MaxLen = p.Lens[0], p.Lens[0]
	for i := 1; i < len(p.Deltas); i++ {
		if d := p.Deltas[i]; d < p.MinDelta {
			p.MinDelta = d
		} else if d > p.MaxDelta {
			p.MaxDelta = d
		}
		if l := p.Lens[i]; l < p.MinLen {
			p.MinLen = l
		} else if l > p.MaxLen {
			p.MaxLen = l
		}
	}
}

// LowerBound returns a cheap lower bound on BBSDistance for the models
// the profiles were extracted from, under the same Options. It costs
// O((n+m)·w) for a Sakoe-Chiba band of half-width w — no DTW matrix, no
// Levenshtein — and underestimates every per-cell cost:
//
//   - D_CSP(i,j) = |Δi − Δj| is computed exactly from the profiles;
//   - D_IS(i,j) ≥ |len_i − len_j| / max(len_i, len_j), because an edit
//     script must at least insert or delete the length difference.
//
// Every admissible warping path visits each row (and each column) at
// least once, so the sum of per-row minima over the band cells bounds
// the raw DTW sum from below; dividing by the maximal path length n+m-1
// bounds the normalized distance. The bound is +Inf when exactly one
// model is empty and 0 when both are.
func LowerBound(a, b *Profile, opts Options) float64 {
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
	sum := rowEnvelope(a, b, opts, w)
	if s := rowEnvelope(b, a, opts, w); s > sum {
		sum = s // the column-wise bound is equally valid; keep the tighter
	}
	// lbSafety (cascade.go) absorbs the ulps by which the DTW's own
	// float accumulation can land below an independently summed bound.
	return sum / float64(n+m-1) * lbSafety
}

// rowEnvelope sums, over each row of the (banded) cost matrix, the
// cheapest possible cell cost derivable from the profiles alone. w <= 0
// means no band: every column is admissible for every row.
func rowEnvelope(a, b *Profile, opts Options, w int) float64 {
	n, m := len(a.Deltas), len(b.Deltas)
	var sum float64
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
		best := math.Inf(1)
		for j := lo; j <= hi; j++ {
			c := opts.ISWeight*lenBound(a.Lens[i-1], b.Lens[j-1]) + opts.CSPWeight*absDelta(a.Deltas[i-1], b.Deltas[j-1])
			if c < best {
				best = c
			}
		}
		sum += best
	}
	return sum
}

// lenBound is the length-difference lower bound on the normalized
// Levenshtein distance: lev(a,b) ≥ ||a|-|b||, so D_IS ≥ ||a|-|b||/max.
func lenBound(la, lb int) float64 {
	if la < lb {
		la, lb = lb, la
	}
	if la == 0 {
		return 0
	}
	return float64(la-lb) / float64(la)
}

func absDelta(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d
}

// Score converts two CST-BBSes directly into the paper's similarity
// score 1/(D+1) in [0,1]; larger means more similar.
func Score(a, b *model.CSTBBS, opts Options) float64 {
	return dtw.Similarity(BBSDistance(a, b, opts))
}

// AlignedPair is one step of the optimal DTW warping path between two
// CST-BBSes: model block a.Seq[I] aligned with b.Seq[J] at the given
// point cost. Low-cost pairs are the matching attack phases; high-cost
// pairs are where the behaviors diverge — the explanation a security
// analyst reads.
type AlignedPair struct {
	I, J int
	Cost float64
}

// Align returns the normalized distance together with the full warping
// path, for explainability (e.g. `scaguard compare -explain`).
func Align(a, b *model.CSTBBS, opts Options) (float64, []AlignedPair) {
	opts = opts.withDefaults()
	d := func(i, j int) float64 { return DistanceOpts(a.Seq[i], b.Seq[j], opts) }
	sum, path := dtw.Path(a.Len(), b.Len(), d, dtw.Options{Window: opts.Window})
	if len(path) == 0 {
		return sum, nil
	}
	pairs := make([]AlignedPair, len(path))
	for k, p := range path {
		pairs[k] = AlignedPair{I: p[0], J: p[1], Cost: d(p[0], p[1])}
	}
	return sum / float64(len(path)), pairs
}
