package similarity

// Property and differential tests for the lower-bound cascade
// (cascade.go): every tier must underestimate the exact BBSDistance for
// every input — randomized models, mutation-generated attack variants
// and fuzzed byte-derived models alike — and the composed cascade must
// be monotone (tier 1 ≤ tier 2 ≤ tier 3). These invariants are what
// make cascade pruning in internal/scan prune-only: a violated bound
// here would silently drop a true best match there.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attacks"
	"repro/internal/model"
	"repro/internal/mutate"
)

// cascadeOptsList is the weight/window matrix every cascade property is
// checked under — the same spread TestLowerBoundNeverExceedsDistance
// uses, covering both ablation extremes and banded DTW.
var cascadeOptsList = []Options{
	DefaultOptions(),
	{Window: 1, ISWeight: 0.5, CSPWeight: 0.5},
	{ISWeight: 1, CSPWeight: 1e-9},
	{ISWeight: 1e-9, CSPWeight: 1},
	{ISWeight: 0, CSPWeight: 1},
	{Window: 2, ISWeight: 0.25, CSPWeight: 0.75},
}

// cascade evaluates all three tiers with the running maximum applied:
// kim ≤ keogh ≤ full by construction, and each is a valid lower bound
// on BBSDistance (a maximum of lower bounds is a lower bound). The scan
// engine escalates lazily instead — an entry pruned at tier 1 never
// pays for tier 2 — so the property tests and the fuzz harness pin the
// cascade's soundness and monotonicity through this composition.
func cascade(a, b *Profile, opts Options, s *KeoghScratch) (kim, keogh, full float64) {
	kim = LowerBoundKim(a, b, opts)
	keogh = LowerBoundKeogh(a, b, opts, s)
	if kim > keogh {
		keogh = kim
	}
	full = LowerBound(a, b, opts)
	if keogh > full {
		full = keogh
	}
	return kim, keogh, full
}

// checkCascadePair verifies every cascade invariant for one model pair
// under one Options value; it reports the first violation as a string
// (empty = all good) so callers can attach their own context.
func checkCascadePair(a, b *model.CSTBBS, opts Options, s *KeoghScratch) string {
	pa, pb := NewProfile(a), NewProfile(b)
	kim, keogh, full := cascade(pa, pb, opts, s)
	d := BBSDistance(a, b, opts)
	if math.IsInf(d, 1) {
		// one-empty: every tier must agree on +Inf
		if !math.IsInf(kim, 1) || !math.IsInf(keogh, 1) || !math.IsInf(full, 1) {
			return "distance +Inf but a tier is finite"
		}
		return ""
	}
	if kim > keogh || keogh > full {
		return "cascade not monotone"
	}
	if full > d {
		return "cascade exceeds exact distance"
	}
	// The raw tiers are individually sound too, not just their running
	// maximum: each alone must underestimate the distance.
	if lb := LowerBoundKim(pa, pb, opts); lb > d {
		return "LowerBoundKim exceeds exact distance"
	}
	if lb := LowerBoundKeogh(pa, pb, opts, s); lb > d {
		return "LowerBoundKeogh exceeds exact distance"
	}
	if lb := LowerBound(pa, pb, opts); lb > d {
		return "LowerBound exceeds exact distance"
	}
	return ""
}

// Every tier of the cascade underestimates the exact distance on
// randomized models, for every weight mix and window, with the Keogh
// scratch reused across all iterations (reuse must not corrupt bounds).
func TestCascadeNeverExceedsDistance(t *testing.T) {
	var s KeoghScratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomBBS(rng, 8), randomBBS(rng, 8)
		for _, opts := range cascadeOptsList {
			if msg := checkCascadePair(a, b, opts, &s); msg != "" {
				t.Logf("seed=%d opts=%+v: %s", seed, opts, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCascadeEmpty(t *testing.T) {
	var s KeoghScratch
	empty := NewProfile(seq("e"))
	full := NewProfile(seq("a", cst([]string{"x"}, 0.1, 0.1)))
	if kim, keogh, fl := cascade(empty, empty, DefaultOptions(), &s); kim != 0 || keogh != 0 || fl != 0 {
		t.Errorf("both empty = (%v, %v, %v), want zeros", kim, keogh, fl)
	}
	kim, keogh, fl := cascade(empty, full, DefaultOptions(), &s)
	if !math.IsInf(kim, 1) || !math.IsInf(keogh, 1) || !math.IsInf(fl, 1) {
		t.Errorf("empty vs full = (%v, %v, %v), want +Inf", kim, keogh, fl)
	}
}

// Identical models must never be pruned against themselves: every tier
// has to report 0 for a self-comparison (the distance is 0, and a
// positive bound would exceed it).
func TestCascadeSelfIsZero(t *testing.T) {
	var s KeoghScratch
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		a := randomBBS(rng, 8)
		p := NewProfile(a)
		kim, keogh, full := cascade(p, p, DefaultOptions(), &s)
		if kim != 0 || keogh != 0 || full != 0 {
			t.Fatalf("self cascade = (%v, %v, %v), want zeros", kim, keogh, full)
		}
	}
}

// mutationModels builds the cascade's adversarial corpus: the behavior
// model of every canonical attack PoC plus two semantics-preserving
// mutated variants each — the realistic near-duplicate population where
// a too-tight bound would actually bite (mutants score very close to
// their originals).
func mutationModels(t testing.TB) []*model.CSTBBS {
	t.Helper()
	var out []*model.CSTBBS
	for _, name := range attacks.Names() {
		poc, err := attacks.ByName(name, attacks.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.BBS)
		for seed := int64(1); seed <= 2; seed++ {
			mut, err := mutate.Mutate(poc.Program, mutate.LightConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			mm, err := model.Build(mut, poc.Victim, model.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, mm.BBS)
		}
	}
	return out
}

// Every cascade tier stays below the exact distance across all pairs of
// real attack models and their mutants — the population the scan engine
// actually prunes over.
func TestCascadeMutationPairs(t *testing.T) {
	models := mutationModels(t)
	var s KeoghScratch
	for _, opts := range []Options{DefaultOptions(), {Window: 2, ISWeight: 0.25, CSPWeight: 0.75}} {
		for i, a := range models {
			for j, b := range models {
				if msg := checkCascadePair(a, b, opts, &s); msg != "" {
					t.Fatalf("models %d vs %d opts=%+v: %s", i, j, opts, msg)
				}
			}
		}
	}
}

// fuzzBBS decodes an arbitrary byte string into a CST-BBS: each byte
// pair becomes one block (length and token mix from the first byte,
// cache delta from the second). Every input is valid, so the fuzzer
// explores model shapes, not parser rejections.
func fuzzBBS(data []byte) *model.CSTBBS {
	words := []string{"mov reg, mem", "clflush mem", "add reg, imm", "rdtscp reg", "jmp imm"}
	s := &model.CSTBBS{Name: "fuzz"}
	for i := 0; i+1 < len(data) && len(s.Seq) < 24; i += 2 {
		n := int(data[i]) % 6
		var norm []string
		for k := 0; k < n; k++ {
			norm = append(norm, words[(int(data[i])+k*int(data[i+1]))%len(words)])
		}
		d := float64(data[i+1]%16) / 16
		s.Seq = append(s.Seq, cst(norm, d, d))
	}
	return s
}

// encodeBBS is fuzzBBS's seed-side inverse-in-spirit: it projects a
// real model into the fuzz byte encoding, so the canonical attack
// corpus seeds the fuzzer with realistic length/delta shapes.
func encodeBBS(s *model.CSTBBS) []byte {
	var out []byte
	for _, c := range s.Seq {
		out = append(out, byte(len(c.NormInsns)), byte(int(c.Delta()*16)&0xff))
	}
	return out
}

// FuzzLowerBoundCascade fuzzes the cascade soundness invariant: two
// byte-derived models, every tier must underestimate the exact
// distance and the cascade must stay monotone. Seeded with handcrafted
// edge shapes plus the encoded canonical attack corpus.
func FuzzLowerBoundCascade(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0}, []byte{5, 15})
	f.Add([]byte{1, 8, 2, 0, 3, 15}, []byte{4, 4})
	f.Add([]byte{255, 255, 0, 1}, []byte{7, 9, 130, 200, 33, 1})
	for _, m := range mutationModels(f) {
		f.Add(encodeBBS(m), encodeBBS(m))
	}
	var s KeoghScratch
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := fuzzBBS(da), fuzzBBS(db)
		for _, opts := range cascadeOptsList {
			if msg := checkCascadePair(a, b, opts, &s); msg != "" {
				t.Fatalf("opts=%+v: %s (a=%d blocks, b=%d blocks)", opts, msg, a.Len(), b.Len())
			}
		}
	})
}
