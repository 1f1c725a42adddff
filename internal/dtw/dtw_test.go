package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// absDist builds a DistFunc over two float slices.
func absDist(a, b []float64) DistFunc {
	return func(i, j int) float64 { return math.Abs(a[i] - b[j]) }
}

func TestDistanceIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := Distance(len(a), len(a), absDist(a, a), Options{}); got != 0 {
		t.Errorf("identical = %v", got)
	}
}

func TestDistanceEmpty(t *testing.T) {
	if got := Distance(0, 0, nil, Options{}); got != 0 {
		t.Errorf("both empty = %v", got)
	}
	a := []float64{1}
	if got := Distance(1, 0, absDist(a, nil), Options{}); !math.IsInf(got, 1) {
		t.Errorf("vs empty = %v, want +Inf", got)
	}
	if got := Distance(0, 1, absDist(nil, a), Options{}); !math.IsInf(got, 1) {
		t.Errorf("empty vs = %v, want +Inf", got)
	}
}

func TestDistanceWarping(t *testing.T) {
	// A stretched copy aligns perfectly: DTW must be 0 while pointwise
	// distance would not be.
	a := []float64{0, 1, 2, 3}
	b := []float64{0, 0, 1, 1, 2, 2, 3, 3}
	if got := Distance(len(a), len(b), absDist(a, b), Options{}); got != 0 {
		t.Errorf("stretched = %v, want 0", got)
	}
}

func TestDistanceSimpleMismatch(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{1, 1}
	// Optimal path: diagonal twice, cost 2.
	if got := Distance(2, 2, absDist(a, b), Options{}); got != 2 {
		t.Errorf("mismatch = %v, want 2", got)
	}
}

func TestWindowedDistance(t *testing.T) {
	a := []float64{0, 1, 2, 3, 4, 5}
	b := []float64{0, 1, 2, 3, 4, 5}
	full := Distance(6, 6, absDist(a, b), Options{})
	band := Distance(6, 6, absDist(a, b), Options{Window: 1})
	if full != 0 || band != 0 {
		t.Errorf("full=%v band=%v", full, band)
	}
	// Band must never beat the unconstrained optimum.
	c := []float64{5, 4, 3, 2, 1, 0}
	fullC := Distance(6, 6, absDist(a, c), Options{})
	bandC := Distance(6, 6, absDist(a, c), Options{Window: 1})
	if bandC < fullC {
		t.Errorf("banded %v < full %v", bandC, fullC)
	}
}

func TestWindowAutoWiden(t *testing.T) {
	// len difference 4 with window 1: band must widen or no path exists.
	a := []float64{1, 1, 1, 1, 1, 1}
	b := []float64{1, 1}
	got := Distance(len(a), len(b), absDist(a, b), Options{Window: 1})
	if math.IsInf(got, 1) {
		t.Error("window failed to widen; no alignment found")
	}
}

func TestPathProperties(t *testing.T) {
	a := []float64{0, 1, 2}
	b := []float64{0, 2}
	d, path := Path(len(a), len(b), absDist(a, b), Options{})
	dd := Distance(len(a), len(b), absDist(a, b), Options{})
	if d != dd {
		t.Errorf("Path distance %v != Distance %v", d, dd)
	}
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	if path[0] != [2]int{0, 0} {
		t.Errorf("path start = %v", path[0])
	}
	if path[len(path)-1] != [2]int{len(a) - 1, len(b) - 1} {
		t.Errorf("path end = %v", path[len(path)-1])
	}
	// Monotone, unit steps.
	for k := 1; k < len(path); k++ {
		di := path[k][0] - path[k-1][0]
		dj := path[k][1] - path[k-1][1]
		if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
			t.Errorf("illegal step %v -> %v", path[k-1], path[k])
		}
	}
}

func TestPathEmpty(t *testing.T) {
	if d, p := Path(0, 0, nil, Options{}); d != 0 || p != nil {
		t.Error("empty Path wrong")
	}
	a := []float64{1}
	if d, _ := Path(1, 0, absDist(a, nil), Options{}); !math.IsInf(d, 1) {
		t.Error("Path vs empty must be +Inf")
	}
}

func TestSimilarity(t *testing.T) {
	if got := Similarity(0); got != 1 {
		t.Errorf("sim(0) = %v", got)
	}
	if got := Similarity(1); got != 0.5 {
		t.Errorf("sim(1) = %v", got)
	}
	if got := Similarity(math.Inf(1)); got != 0 {
		t.Errorf("sim(inf) = %v", got)
	}
	// Monotone decreasing.
	if Similarity(2) >= Similarity(1) {
		t.Error("similarity must decrease with distance")
	}
}

// Properties on random sequences: non-negativity, symmetry, zero on
// identical input, Path agrees with Distance, banded >= full.
func TestDTWProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(10), 1+rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = float64(rng.Intn(8))
		}
		for j := range b {
			b[j] = float64(rng.Intn(8))
		}
		dab := Distance(n, m, absDist(a, b), Options{})
		dba := Distance(m, n, absDist(b, a), Options{})
		if dab < 0 || math.Abs(dab-dba) > 1e-9 {
			return false
		}
		if Distance(n, n, absDist(a, a), Options{}) != 0 {
			return false
		}
		pd, _ := Path(n, m, absDist(a, b), Options{})
		if math.Abs(pd-dab) > 1e-9 {
			return false
		}
		band := Distance(n, m, absDist(a, b), Options{Window: 2})
		return band >= dab-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// DistanceWithPathLen must reproduce Path's (sum, len(path)) pair
// exactly — including on tie-heavy integer costs, where the tracked
// length is only correct if the forward predecessor choice mirrors the
// backtracking tie-break.
func TestDistanceWithPathLenMatchesPath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(12), 1+rng.Intn(12)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = float64(rng.Intn(4)) // small ints force frequent ties
		}
		for j := range b {
			b[j] = float64(rng.Intn(4))
		}
		for _, w := range []int{0, 1, 3} {
			opts := Options{Window: w}
			ps, path := Path(n, m, absDist(a, b), opts)
			ds, plen := DistanceWithPathLen(n, m, absDist(a, b), opts)
			if ds != ps || plen != len(path) {
				t.Logf("seed=%d n=%d m=%d w=%d: Path=(%v,%d) DistanceWithPathLen=(%v,%d)",
					seed, n, m, w, ps, len(path), ds, plen)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceWithPathLenEmpty(t *testing.T) {
	if s, l := DistanceWithPathLen(0, 0, nil, Options{}); s != 0 || l != 0 {
		t.Errorf("both empty = (%v,%d)", s, l)
	}
	a := []float64{1}
	if s, l := DistanceWithPathLen(1, 0, absDist(a, nil), Options{}); !math.IsInf(s, 1) || l != 0 {
		t.Errorf("vs empty = (%v,%d), want (+Inf,0)", s, l)
	}
}

// An infinite cutoff must never abandon and must return the exact
// result; a finite cutoff may only abandon when the true sum exceeds it,
// and the abandoned sum must be a valid lower bound.
func TestDistanceAbandonContract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(10), 1+rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.Float64() * 4
		}
		for j := range b {
			b[j] = rng.Float64() * 4
		}
		opts := Options{Window: rng.Intn(3)}
		exact, plen := DistanceWithPathLen(n, m, absDist(a, b), opts)

		if s, l, ab := distanceAbandon(n, m, absDist(a, b), opts, math.Inf(1)); ab || s != exact || l != plen {
			return false
		}
		cutoff := rng.Float64() * exact * 1.5
		s, _, ab := distanceAbandon(n, m, absDist(a, b), opts, cutoff)
		if ab {
			// Abandoning requires a proof: exact > cutoff, and the
			// returned sum is a lower bound on the exact sum.
			return exact > cutoff && s > cutoff && s <= exact
		}
		return s == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceAbandonTriggers(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{5, 5, 5, 5}
	// Exact sum is 20; a cutoff of 1 must abandon on the first row.
	s, l, ab := distanceAbandon(4, 4, absDist(a, b), Options{}, 1)
	if !ab || l != 0 || s <= 1 {
		t.Errorf("abandon = (%v,%d,%v)", s, l, ab)
	}
}

func TestPathWithWindow(t *testing.T) {
	a := []float64{0, 1, 2, 3, 4}
	b := []float64{0, 1, 2, 3, 4}
	d, path := Path(len(a), len(b), absDist(a, b), Options{Window: 1})
	if d != 0 {
		t.Errorf("banded identical distance = %v", d)
	}
	if len(path) != 5 {
		t.Errorf("diagonal path length = %d", len(path))
	}
	// Band narrower than the length difference must widen.
	c := []float64{0, 1}
	d2, p2 := Path(len(a), len(c), absDist(a, c), Options{Window: 1})
	if math.IsInf(d2, 1) || len(p2) == 0 {
		t.Error("banded path must auto-widen for unequal lengths")
	}
}
