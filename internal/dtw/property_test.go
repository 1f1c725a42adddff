package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// randCase draws one random property-test instance: two float
// sequences plus the absolute-difference point distance (non-negative
// and symmetric, the shape every pipeline distance has).
type randCase struct {
	a, b []float64
	opts Options
}

func (c randCase) d(i, j int) float64 { return math.Abs(c.a[i] - c.b[j]) }

// dT is the transposed distance, for comparing D(a,b) with D(b,a).
func (c randCase) dT(i, j int) float64 { return math.Abs(c.b[i] - c.a[j]) }

func drawCase(rng *rand.Rand) randCase {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Float64() * 10
		}
		return out
	}
	windows := []int{0, 0, 1, 2, 5}
	return randCase{
		a:    seq(rng.Intn(13)),
		b:    seq(rng.Intn(13)),
		opts: Options{Window: windows[rng.Intn(len(windows))]},
	}
}

// Property: DistanceAbandon with an infinite cutoff never abandons and
// returns exactly Distance's sum (and DistanceWithPathLen's pair).
func TestPropertyAbandonInfCutoffEqualsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		c := drawCase(rng)
		n, m := len(c.a), len(c.b)
		want := Distance(n, m, c.d, c.opts)
		sum, pathLen, abandoned := distanceAbandon(n, m, c.d, c.opts, math.Inf(1))
		if abandoned {
			t.Fatalf("iter %d: +Inf cutoff abandoned (n=%d m=%d w=%d)", iter, n, m, c.opts.Window)
		}
		if sum != want && !(math.IsInf(sum, 1) && math.IsInf(want, 1)) {
			t.Fatalf("iter %d: DistanceAbandon sum %v != Distance %v (n=%d m=%d w=%d)",
				iter, sum, want, n, m, c.opts.Window)
		}
		wSum, wLen := DistanceWithPathLen(n, m, c.d, c.opts)
		if wSum != sum && !(math.IsInf(wSum, 1) && math.IsInf(sum, 1)) {
			t.Fatalf("iter %d: DistanceWithPathLen sum %v != %v", iter, wSum, sum)
		}
		if wLen != pathLen {
			t.Fatalf("iter %d: path length mismatch %d != %d", iter, wLen, pathLen)
		}
	}
}

// Property: DistanceWithPathLen's distance equals Distance, and its
// path length is exactly the length of the path Path reconstructs and
// lies in the admissible range [max(n,m), n+m-1].
func TestPropertyWithPathLenMatchesDistanceAndPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		c := drawCase(rng)
		n, m := len(c.a), len(c.b)
		want := Distance(n, m, c.d, c.opts)
		sum, pathLen := DistanceWithPathLen(n, m, c.d, c.opts)
		if sum != want && !(math.IsInf(sum, 1) && math.IsInf(want, 1)) {
			t.Fatalf("iter %d: sum %v != Distance %v", iter, sum, want)
		}
		pSum, path := Path(n, m, c.d, c.opts)
		if pSum != sum && !(math.IsInf(pSum, 1) && math.IsInf(sum, 1)) {
			t.Fatalf("iter %d: Path sum %v != %v", iter, pSum, sum)
		}
		if len(path) != pathLen {
			t.Fatalf("iter %d: len(Path) %d != pathLen %d", iter, len(path), pathLen)
		}
		if n > 0 && m > 0 {
			lo, hi := n, n+m-1
			if m > n {
				lo = m
			}
			if pathLen < lo || pathLen > hi {
				t.Fatalf("iter %d: path length %d outside [%d,%d]", iter, pathLen, lo, hi)
			}
		}
	}
}

// Property: the DTW distance is symmetric when the point distance is —
// D(a,b) == D(b,a) under the transposed distance function.
func TestPropertySymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		c := drawCase(rng)
		n, m := len(c.a), len(c.b)
		ab := Distance(n, m, c.d, c.opts)
		ba := Distance(m, n, c.dT, c.opts)
		if ab != ba && !(math.IsInf(ab, 1) && math.IsInf(ba, 1)) {
			t.Fatalf("iter %d: D(a,b)=%v != D(b,a)=%v (n=%d m=%d w=%d)",
				iter, ab, ba, n, m, c.opts.Window)
		}
	}
}

// Property: with a finite cutoff, DistanceAbandon either completes with
// the exact answer or abandons with a certified lower bound — a sum
// strictly above the cutoff and never above the true distance.
func TestPropertyFiniteCutoffSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 2000; iter++ {
		c := drawCase(rng)
		n, m := len(c.a), len(c.b)
		if n == 0 || m == 0 {
			continue
		}
		exact := Distance(n, m, c.d, c.opts)
		cutoff := rng.Float64() * 20 * float64(n+m)
		sum, pathLen, abandoned := distanceAbandon(n, m, c.d, c.opts, cutoff)
		if !abandoned {
			if sum != exact {
				t.Fatalf("iter %d: completed sum %v != exact %v", iter, sum, exact)
			}
			if sum > cutoff && !math.IsInf(sum, 1) {
				// Completing above the cutoff is allowed only when no row
				// ever proved the bound (possible: the final cell can
				// exceed the cutoff while some cell of each row stayed
				// under); the result must still be exact, checked above.
				continue
			}
			continue
		}
		if pathLen != 0 {
			t.Fatalf("iter %d: abandoned with pathLen %d", iter, pathLen)
		}
		if !(sum > cutoff) {
			t.Fatalf("iter %d: abandoned but sum %v <= cutoff %v", iter, sum, cutoff)
		}
		if sum > exact {
			t.Fatalf("iter %d: abandon bound %v exceeds exact %v", iter, sum, exact)
		}
		if exact <= cutoff {
			t.Fatalf("iter %d: abandoned although exact %v <= cutoff %v", iter, exact, cutoff)
		}
	}
}
