package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/scan"
)

// repoFR builds a repository containing one PoC per attack family, the
// paper's deployment configuration. Building models runs the simulator,
// so the repository is shared across tests.
var sharedRepo *Repository

func repo(t *testing.T) *Repository {
	t.Helper()
	if sharedRepo != nil {
		return sharedRepo
	}
	p := attacks.DefaultParams()
	pocs := []attacks.PoC{
		attacks.FlushReloadIAIK(p),
		attacks.PrimeProbeIAIK(p),
		attacks.SpectreFRIdea(p),
		attacks.SpectrePPTrippel(p),
	}
	r, err := BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharedRepo = r
	return r
}

func TestRepositoryBasics(t *testing.T) {
	r := repo(t)
	if len(r.Entries) != 4 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	fams := r.Families()
	if len(fams) != 4 {
		t.Errorf("families = %v", fams)
	}
	for _, e := range r.Entries {
		if e.BBS == nil || e.BBS.Len() == 0 {
			t.Errorf("%s: empty model", e.Name)
		}
	}
}

func TestSelfClassification(t *testing.T) {
	r := repo(t)
	d := NewDetector(r)
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	res, m, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model returned")
	}
	if res.Predicted != attacks.FamilyFR {
		t.Errorf("FR PoC classified as %s (best %s %.2f)",
			res.Predicted, res.Best.Name, res.Best.Score)
	}
	if res.Best.Score < 0.9 {
		t.Errorf("self-similarity score = %.3f, want near 1", res.Best.Score)
	}
}

func TestVariantClassification(t *testing.T) {
	r := repo(t)
	d := NewDetector(r)
	// A different FR implementation (unknown to the repo) must still be
	// classified as the FR family — the core claim of the paper.
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadNepoche(p)
	res, _, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != attacks.FamilyFR {
		t.Errorf("FR-Nepoche classified as %s (best %s %.2f)",
			res.Predicted, res.Best.Name, res.Best.Score)
	}
}

func TestHardVariantStillDetectedAsAttack(t *testing.T) {
	// FR-Mastik's batched sweeps sit between plain FR and its Spectre
	// variant in model space; family assignment may go either way, but
	// it must never be called benign.
	r := repo(t)
	d := NewDetector(r)
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadMastik(p)
	res, _, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted == attacks.FamilyBenign {
		t.Errorf("FR-Mastik classified benign (best %s %.2f)",
			res.Best.Name, res.Best.Score)
	}
	if res.Predicted != attacks.FamilyFR && res.Predicted != attacks.FamilySFR {
		t.Errorf("FR-Mastik classified as %s", res.Predicted)
	}
}

func TestMutatedVariantClassification(t *testing.T) {
	r := repo(t)
	d := NewDetector(r)
	p := attacks.DefaultParams()
	poc := attacks.PrimeProbeIAIK(p)
	mut, err := mutate.Mutate(poc.Program, mutate.LightConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := d.Classify(mut, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != attacks.FamilyPP {
		t.Errorf("mutated PP classified as %s (best %s %.2f)",
			res.Predicted, res.Best.Name, res.Best.Score)
	}
}

func TestBenignClassification(t *testing.T) {
	r := repo(t)
	d := NewDetector(r)
	for _, spec := range []benign.Spec{
		{Kind: benign.KindLeetcode, Template: "binary-search", Seed: 11},
		{Kind: benign.KindSpec, Template: "stream", Seed: 12},
		{Kind: benign.KindServer, Template: "thttpd-serve", Seed: 13},
	} {
		prog := benign.MustGenerate(spec)
		res, _, err := d.Classify(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Predicted != attacks.FamilyBenign {
			t.Errorf("%s classified as %s (best %s score %.3f)",
				spec.Name(), res.Predicted, res.Best.Name, res.Best.Score)
		}
	}
}

func TestThresholdControlsDecision(t *testing.T) {
	r := repo(t)
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	strict := NewDetector(r)
	strict.Threshold = 1.01 // nothing can reach it
	if res := strict.ClassifyBBS(m.BBS); res.Predicted != attacks.FamilyBenign {
		t.Error("impossible threshold must force benign")
	}
	lax := NewDetector(r)
	lax.Threshold = 0
	if res := lax.ClassifyBBS(m.BBS); res.Predicted == attacks.FamilyBenign {
		t.Error("zero threshold must classify as some attack")
	}
}

func TestMatchesSorted(t *testing.T) {
	r := repo(t)
	d := NewDetector(r)
	p := attacks.DefaultParams()
	poc := attacks.EvictReloadIAIK(p)
	res, _, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i-1].Score < res.Matches[i].Score {
			t.Error("matches not sorted by score")
		}
	}
	if res.Best != res.Matches[0] {
		t.Error("Best must equal the first match")
	}
}

// TestAssembleOrderMatchesSliceStable: assemble's best-first sort must
// order random match lists — heavy score ties, pruned and exact entries
// mixed — exactly as the sort.SliceStable reference does, so equal
// scores keep repository order.
func TestAssembleOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scores := []float64{0, 0.25, 1.0 / 3, 0.5, 1}
	families := attacks.Families()
	d := &Detector{Threshold: DefaultThreshold}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(48)
		if trial%50 == 0 {
			n = 500 // repository-sized, well past the sort's small-slice path
		}
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Name: fmt.Sprintf("e%d", i), Family: families[rng.Intn(len(families))]}
		}
		ms := make([]scan.Match, n)
		want := make([]Match, n)
		for i, idx := range rng.Perm(n) {
			ms[i] = scan.Match{Index: idx, Score: scores[rng.Intn(len(scores))], Pruned: rng.Intn(3) == 0}
			want[i] = Match{Name: entries[idx].Name, Family: entries[idx].Family, Score: ms[i].Score, Pruned: ms[i].Pruned}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Score > want[j].Score })
		if got := d.assemble(entries, ms); !reflect.DeepEqual(got.Matches, want) {
			t.Fatalf("trial %d: assemble order\n got %+v\nwant %+v", trial, got.Matches, want)
		}
	}
}

func TestClassifyInvalidProgram(t *testing.T) {
	d := NewDetector(repo(t))
	if _, _, err := d.Classify(nil, nil); err == nil {
		t.Error("nil program must fail")
	}
}

func TestEmptyRepository(t *testing.T) {
	d := NewDetector(&Repository{})
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := d.ClassifyBBS(m.BBS)
	if res.Predicted != attacks.FamilyBenign || len(res.Matches) != 0 {
		t.Error("empty repository must yield benign with no matches")
	}
}

// Families guarantees deterministic output: deduplicated, sorted
// ascending, and independent of insertion order. Reports and golden
// files rely on it.
func TestFamiliesDeterministicOrder(t *testing.T) {
	bbs := repo(t).Entries[0].BBS
	families := []attacks.Family{
		attacks.FamilySPP, attacks.FamilyFR, attacks.FamilyPP,
		attacks.FamilyFR, attacks.FamilySFR, attacks.FamilyPP,
	}
	build := func(order []attacks.Family) *Repository {
		r := &Repository{}
		for i, f := range order {
			r.Add(fmt.Sprintf("e%d", i), f, bbs)
		}
		return r
	}
	reversed := make([]attacks.Family, len(families))
	for i, f := range families {
		reversed[len(families)-1-i] = f
	}
	got := build(families).Families()
	gotRev := build(reversed).Families()
	if !reflect.DeepEqual(got, gotRev) {
		t.Fatalf("insertion order changed Families: %v vs %v", got, gotRev)
	}
	want := []attacks.Family{
		attacks.FamilyFR, attacks.FamilyPP, attacks.FamilySFR, attacks.FamilySPP,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Families = %v, want deduped ascending %v", got, want)
	}
	for i := 0; i < 50; i++ { // repeated calls are stable (map iteration inside)
		if again := build(families).Families(); !reflect.DeepEqual(again, want) {
			t.Fatalf("run %d: Families = %v, want %v", i, again, want)
		}
	}
}
