package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/dtw"
	"repro/internal/model"
)

func cst(norm []string, deltaAO, deltaIO float64) model.CST {
	return model.CST{
		NormInsns: norm,
		Before:    cache.State{AO: 0, IO: 1},
		After:     cache.State{AO: deltaAO, IO: 1 - deltaIO},
	}
}

func TestDIS(t *testing.T) {
	a := cst([]string{"mov reg, imm", "clflush mem"}, 0, 0)
	b := cst([]string{"mov reg, imm", "clflush mem"}, 0, 0)
	if got := DIS(a, b); got != 0 {
		t.Errorf("identical IS distance = %v", got)
	}
	c := cst([]string{"mov reg, imm", "add reg, reg"}, 0, 0)
	if got := DIS(a, c); got != 0.5 {
		t.Errorf("half-different IS distance = %v", got)
	}
}

func TestDCSP(t *testing.T) {
	a := cst(nil, 0.25, 0.25) // delta = 0.25
	b := cst(nil, 0.05, 0.05) // delta = 0.05
	if got := DCSP(a, b); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("DCSP = %v, want 0.2", got)
	}
	if DCSP(a, a) != 0 {
		t.Error("identical CSP distance must be 0")
	}
	if DCSP(a, b) != DCSP(b, a) {
		t.Error("DCSP must be symmetric")
	}
}

func TestDistanceMean(t *testing.T) {
	a := cst([]string{"x"}, 0.4, 0.4)
	b := cst([]string{"y"}, 0.0, 0.0)
	// D_IS = 1, D_CSP = 0.4 -> mean 0.7
	if got := DistanceOpts(a, b, DefaultOptions()); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Distance = %v, want 0.7", got)
	}
}

func TestDistanceOptsWeights(t *testing.T) {
	a := cst([]string{"x"}, 0.4, 0.4)
	b := cst([]string{"y"}, 0.0, 0.0)
	onlyIS := DistanceOpts(a, b, Options{ISWeight: 1, CSPWeight: 0})
	if onlyIS != 1 {
		t.Errorf("IS-only = %v", onlyIS)
	}
	onlyCSP := DistanceOpts(a, b, Options{ISWeight: 0, CSPWeight: 1})
	if math.Abs(onlyCSP-0.4) > 1e-12 {
		t.Errorf("CSP-only = %v", onlyCSP)
	}
	// Zero weights fall back to the default mean.
	def := DistanceOpts(a, b, Options{})
	if math.Abs(def-0.7) > 1e-12 {
		t.Errorf("default = %v", def)
	}
}

func seq(name string, csts ...model.CST) *model.CSTBBS {
	return &model.CSTBBS{Name: name, Seq: csts}
}

func TestBBSDistanceIdentical(t *testing.T) {
	s := seq("a",
		cst([]string{"clflush mem"}, 0, 0.1),
		cst([]string{"mov reg, mem"}, 0.1, 0.1),
	)
	if got := BBSDistance(s, s, DefaultOptions()); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	if got := Score(s, s, DefaultOptions()); got != 1 {
		t.Errorf("self score = %v", got)
	}
}

func TestBBSDistanceEmpty(t *testing.T) {
	empty := seq("e")
	s := seq("a", cst([]string{"x"}, 0, 0))
	if got := Score(empty, s, DefaultOptions()); got != 0 {
		t.Errorf("empty vs nonempty score = %v, want 0", got)
	}
	if got := Score(empty, empty, DefaultOptions()); got != 1 {
		t.Errorf("empty vs empty score = %v, want 1", got)
	}
}

func TestScoreOrdering(t *testing.T) {
	// base vs a near-identical variant must score higher than vs a very
	// different sequence.
	base := seq("fr",
		cst([]string{"clflush mem"}, 0, 0.1),
		cst([]string{"rdtscp reg", "mov reg, mem", "rdtscp reg"}, 0.1, 0.1),
	)
	variant := seq("fr2",
		cst([]string{"clflush mem", "nop"}, 0, 0.1),
		cst([]string{"rdtscp reg", "mov reg, mem", "rdtscp reg"}, 0.12, 0.12),
	)
	other := seq("benign",
		cst([]string{"add reg, reg"}, 0, 0),
		cst([]string{"mul reg, reg"}, 0, 0),
		cst([]string{"mov reg, mem"}, 0.01, 0.01),
	)
	sVariant := Score(base, variant, DefaultOptions())
	sOther := Score(base, other, DefaultOptions())
	if sVariant <= sOther {
		t.Errorf("variant score %v must beat unrelated score %v", sVariant, sOther)
	}
}

func TestWarpingToleratesStretch(t *testing.T) {
	// The same two-phase behavior, once compact and once with each phase
	// duplicated (an unrolled variant): DTW must still align them well.
	flush := cst([]string{"clflush mem"}, 0, 0.1)
	reload := cst([]string{"rdtscp reg", "mov reg, mem"}, 0.1, 0.1)
	compact := seq("compact", flush, reload)
	unrolled := seq("unrolled", flush, flush, reload, reload)
	if got := BBSDistance(compact, unrolled, DefaultOptions()); got != 0 {
		t.Errorf("stretched alignment distance = %v, want 0", got)
	}
}

func TestWindowOption(t *testing.T) {
	a := seq("a",
		cst([]string{"x"}, 0.1, 0.1), cst([]string{"y"}, 0.2, 0.2),
		cst([]string{"z"}, 0.3, 0.3), cst([]string{"w"}, 0.4, 0.4),
	)
	b := seq("b",
		cst([]string{"w"}, 0.4, 0.4), cst([]string{"z"}, 0.3, 0.3),
		cst([]string{"y"}, 0.2, 0.2), cst([]string{"x"}, 0.1, 0.1),
	)
	full := BBSDistance(a, b, DefaultOptions())
	band := BBSDistance(a, b, Options{Window: 1, ISWeight: 0.5, CSPWeight: 0.5})
	if band < full {
		t.Errorf("banded %v must not beat full %v", band, full)
	}
}

// Score stays in [0,1] and is symmetric for random CST-BBSes.
func TestScoreProperties(t *testing.T) {
	gen := func(rng *rand.Rand) *model.CSTBBS {
		n := 1 + rng.Intn(6)
		s := &model.CSTBBS{Name: "r"}
		words := []string{"mov reg, mem", "clflush mem", "add reg, imm", "rdtscp reg"}
		for i := 0; i < n; i++ {
			var norm []string
			for k := 0; k <= rng.Intn(3); k++ {
				norm = append(norm, words[rng.Intn(len(words))])
			}
			d := float64(rng.Intn(10)) / 20
			s.Seq = append(s.Seq, cst(norm, d, d))
		}
		return s
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		sab := Score(a, b, DefaultOptions())
		sba := Score(b, a, DefaultOptions())
		if math.Abs(sab-sba) > 1e-9 {
			return false
		}
		return sab >= 0 && sab <= 1 && Score(a, a, DefaultOptions()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// WithDefaults must only rewrite the both-zero case: a deliberately
// one-sided configuration like ISWeight=0, CSPWeight=1 ("cache semantics
// only") is an ablation setting and must survive untouched. These tests
// lock in that contract.
func TestWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{"both zero -> paper mean", Options{}, Options{ISWeight: 0.5, CSPWeight: 0.5}},
		{"window preserved", Options{Window: 7}, Options{ISWeight: 0.5, CSPWeight: 0.5, Window: 7}},
		{"CSP-only ablation kept", Options{ISWeight: 0, CSPWeight: 1}, Options{ISWeight: 0, CSPWeight: 1}},
		{"IS-only ablation kept", Options{ISWeight: 1, CSPWeight: 0}, Options{ISWeight: 1, CSPWeight: 0}},
		{"explicit weights kept", Options{ISWeight: 0.3, CSPWeight: 0.7}, Options{ISWeight: 0.3, CSPWeight: 0.7}},
	}
	for _, c := range cases {
		if got := c.in.WithDefaults(); got != c.want {
			t.Errorf("%s: WithDefaults(%+v) = %+v, want %+v", c.name, c.in, got, c.want)
		}
	}
}

// The one-sided weight configurations must flow through the whole
// distance, not just the option struct: with ISWeight=0 a pure syntax
// change is invisible, with CSPWeight=0 a pure cache change is.
func TestOneSidedWeightsEndToEnd(t *testing.T) {
	syntaxOnly := cst([]string{"a", "b"}, 0.2, 0.2)
	syntaxOther := cst([]string{"x", "y"}, 0.2, 0.2)
	if got := DistanceOpts(syntaxOnly, syntaxOther, Options{ISWeight: 0, CSPWeight: 1}); got != 0 {
		t.Errorf("CSP-only distance sees syntax: %v", got)
	}
	cacheOnly := cst([]string{"a", "b"}, 0.4, 0.4)
	if got := DistanceOpts(syntaxOnly, cacheOnly, Options{ISWeight: 1, CSPWeight: 0}); got != 0 {
		t.Errorf("IS-only distance sees cache state: %v", got)
	}
}

func randomBBS(rng *rand.Rand, maxLen int) *model.CSTBBS {
	n := rng.Intn(maxLen + 1)
	s := &model.CSTBBS{Name: "r"}
	words := []string{"mov reg, mem", "clflush mem", "add reg, imm", "rdtscp reg", "jmp imm"}
	for i := 0; i < n; i++ {
		var norm []string
		for k := 0; k < rng.Intn(5); k++ {
			norm = append(norm, words[rng.Intn(len(words))])
		}
		d := float64(rng.Intn(12)) / 16
		s.Seq = append(s.Seq, cst(norm, d, d))
	}
	return s
}

// LowerBound must never exceed the exact BBSDistance, for any window and
// weight mix, including empty models.
func TestLowerBoundNeverExceedsDistance(t *testing.T) {
	optsList := []Options{
		DefaultOptions(),
		{Window: 1, ISWeight: 0.5, CSPWeight: 0.5},
		{ISWeight: 1, CSPWeight: 1e-9},
		{ISWeight: 1e-9, CSPWeight: 1},
		{ISWeight: 0, CSPWeight: 1},
		{Window: 2, ISWeight: 0.25, CSPWeight: 0.75},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomBBS(rng, 8), randomBBS(rng, 8)
		pa, pb := NewProfile(a), NewProfile(b)
		for _, opts := range optsList {
			lb := LowerBound(pa, pb, opts)
			d := BBSDistance(a, b, opts)
			if math.IsInf(d, 1) {
				if !math.IsInf(lb, 1) && a.Len()+b.Len() > 0 {
					// one-empty case: bound must also be +Inf
					t.Logf("seed=%d: d=+Inf but lb=%v", seed, lb)
					return false
				}
				continue
			}
			if lb > d {
				t.Logf("seed=%d opts=%+v: LowerBound %v > BBSDistance %v", seed, opts, lb, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bbsDistanceAbandon is BBSDistance with early abandoning: when the
// normalized distance provably exceeds cutoff it stops mid-alignment and
// returns (bound, true), where bound is a lower bound on the true
// distance with bound > cutoff. Otherwise it returns the exact
// BBSDistance value and false. A cutoff of +Inf never abandons.
//
// It is the reference the scan engine's compare mirrors.
//
// The proof obligation is discharged by scaling: an optimal warping path
// has at most n+m-1 steps, so a raw DTW sum above cutoff·(n+m-1)
// normalizes to a distance above cutoff whatever the true path length.
func bbsDistanceAbandon(a, b *model.CSTBBS, opts Options, cutoff float64) (float64, bool) {
	opts = opts.withDefaults()
	n, m := a.Len(), b.Len()
	switch {
	case n == 0 && m == 0:
		return 0, false
	case n == 0 || m == 0:
		return math.Inf(1), false
	}
	d := func(i, j int) float64 { return DistanceOpts(a.Seq[i], b.Seq[j], opts) }
	rawCutoff := cutoff * float64(n+m-1)
	sum, pathLen, abandoned := dtw.DistanceAbandonScratch(n, m, d, dtw.Options{Window: opts.Window}, rawCutoff, &dtw.Scratch{})
	if abandoned {
		return sum / float64(n+m-1), true
	}
	return sum / float64(pathLen), false
}

// bbsDistanceAbandon with +Inf cutoff is exact; with a finite cutoff it
// either returns the exact distance or a valid lower bound above the
// cutoff.
func TestBBSDistanceAbandon(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomBBS(rng, 8), randomBBS(rng, 8)
		opts := DefaultOptions()
		exact := BBSDistance(a, b, opts)

		d, ab := bbsDistanceAbandon(a, b, opts, math.Inf(1))
		if ab || d != exact && !(math.IsInf(d, 1) && math.IsInf(exact, 1)) {
			t.Logf("seed=%d: inf cutoff gave (%v,%v), exact %v", seed, d, ab, exact)
			return false
		}
		if math.IsInf(exact, 1) || a.Len() == 0 || b.Len() == 0 {
			return true
		}
		cutoff := exact * rng.Float64() * 1.5
		d, ab = bbsDistanceAbandon(a, b, opts, cutoff)
		if ab {
			return exact > cutoff && d > cutoff && d <= exact
		}
		return d == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	empty := NewProfile(seq("e"))
	full := NewProfile(seq("a", cst([]string{"x"}, 0.1, 0.1)))
	if got := LowerBound(empty, empty, DefaultOptions()); got != 0 {
		t.Errorf("both empty = %v", got)
	}
	if got := LowerBound(empty, full, DefaultOptions()); !math.IsInf(got, 1) {
		t.Errorf("empty vs full = %v, want +Inf", got)
	}
}

func TestAlign(t *testing.T) {
	a := seq("a",
		cst([]string{"clflush mem"}, 0, 0.1),
		cst([]string{"rdtscp reg", "mov reg, mem"}, 0.1, 0.1),
	)
	b := seq("b",
		cst([]string{"clflush mem"}, 0, 0.1),
		cst([]string{"rdtscp reg", "mov reg, mem"}, 0.1, 0.1),
	)
	d, pairs := Align(a, b, DefaultOptions())
	if d != 0 {
		t.Errorf("aligned distance = %v", d)
	}
	if len(pairs) != 2 || pairs[0].Cost != 0 || pairs[1].Cost != 0 {
		t.Errorf("pairs = %+v", pairs)
	}
	// Distance from Align equals BBSDistance.
	other := seq("c", cst([]string{"add reg, reg"}, 0, 0))
	d2, pairs2 := Align(a, other, DefaultOptions())
	if d2 != BBSDistance(a, other, DefaultOptions()) {
		t.Error("Align distance disagrees with BBSDistance")
	}
	if len(pairs2) == 0 {
		t.Error("alignment must not be empty")
	}
	// Empty alignment.
	if _, p := Align(seq("e"), a, DefaultOptions()); p != nil {
		t.Error("empty model alignment must be nil")
	}
}
