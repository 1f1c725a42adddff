package scan

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/model"
	"repro/internal/similarity"
)

func cst(norm []string, delta float64) model.CST {
	return model.CST{
		NormInsns: norm,
		Before:    cache.State{AO: 0, IO: 1},
		After:     cache.State{AO: delta, IO: 1 - delta},
	}
}

// randomBBS draws sequences from a small block vocabulary so that blocks
// repeat across models — the workload the DistCache exists for.
func randomBBS(rng *rand.Rand, maxLen int) *model.CSTBBS {
	vocab := [][]string{
		{"clflush mem"},
		{"mov reg, mem", "rdtscp reg"},
		{"mov reg, mem", "add reg, imm", "cmp reg, imm"},
		{"rdtscp reg", "mov reg, mem", "rdtscp reg", "sub reg, reg"},
		{"add reg, imm"},
		{"mov reg, mem"},
	}
	n := rng.Intn(maxLen + 1)
	s := &model.CSTBBS{Name: "r", TimerReads: 1}
	for i := 0; i < n; i++ {
		s.Seq = append(s.Seq, cst(vocab[rng.Intn(len(vocab))], float64(rng.Intn(10))/16))
	}
	return s
}

func randomCorpus(rng *rand.Rand, n, maxLen int) []*model.CSTBBS {
	out := make([]*model.CSTBBS, n)
	for i := range out {
		out[i] = randomBBS(rng, maxLen)
	}
	return out
}

// Exact mode must be bit-identical to the serial reference — not merely
// close: the same comparisons, the same float operations.
func TestScanMatchesSerialExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randomCorpus(rng, 1+rng.Intn(12), 8)
		eng := New(entries, Config{Workers: 1 + rng.Intn(4), Sim: similarity.DefaultOptions()})
		for trial := 0; trial < 4; trial++ {
			target := randomBBS(rng, 8)
			got := eng.Scan(target)
			want := eng.ScanSerial(target)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed=%d entry %d: parallel %+v serial %+v", seed, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Pruned mode may skip entries, but the winner must stay exact: same
// best index (under lowest-index tie-breaking) and identical best score
// as the serial path, and every pruned entry's reported score must be a
// true upper bound on its exact score.
func TestPrunedScanKeepsBestExact(t *testing.T) {
	best := func(ms []Match) (int, float64) {
		bi, bs := -1, math.Inf(-1)
		for i, m := range ms {
			if m.Score > bs {
				bi, bs = i, m.Score
			}
		}
		return bi, bs
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randomCorpus(rng, 2+rng.Intn(12), 8)
		eng := New(entries, Config{Workers: 1 + rng.Intn(4), Prune: true, Sim: similarity.DefaultOptions()})
		for trial := 0; trial < 4; trial++ {
			target := randomBBS(rng, 8)
			got := eng.Scan(target)
			want := eng.ScanSerial(target)
			wi, ws := best(want)
			gi, gs := best(got)
			if got[wi].Pruned {
				t.Logf("seed=%d: true best entry %d was pruned", seed, wi)
				return false
			}
			if gi != wi || gs != ws {
				t.Logf("seed=%d: pruned best (%d,%v) != serial best (%d,%v)", seed, gi, gs, wi, ws)
				return false
			}
			for i, m := range got {
				if m.Pruned {
					if m.Score < want[i].Score {
						t.Logf("seed=%d entry %d: pruned bound %v below exact %v", seed, i, m.Score, want[i].Score)
						return false
					}
				} else if m.Score != want[i].Score {
					t.Logf("seed=%d entry %d: non-pruned score %v != exact %v", seed, i, m.Score, want[i].Score)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A real-corpus differential check: models built from actual PoCs via
// the full simulator pipeline, scanned in parallel vs serially.
func TestScanRealCorpus(t *testing.T) {
	p := attacks.DefaultParams()
	pocs := []attacks.PoC{
		attacks.FlushReloadIAIK(p),
		attacks.PrimeProbeIAIK(p),
		attacks.SpectreFRIdea(p),
	}
	var models []*model.CSTBBS
	for _, poc := range pocs {
		m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m.BBS)
	}
	eng := New(models, Config{Workers: 4, Sim: similarity.DefaultOptions()})
	for _, target := range models {
		got := eng.Scan(target)
		want := eng.ScanSerial(target)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s vs entry %d: parallel %+v serial %+v", target.Name, i, got[i], want[i])
			}
		}
	}
	// Self-scan must find itself with score 1.
	self := eng.Scan(models[0])
	if self[0].Score != 1 {
		t.Errorf("self score = %v, want 1", self[0].Score)
	}
}

// Engines are safe for concurrent use: many goroutines scanning one
// engine (exercised under -race) must each get the serial answer.
func TestConcurrentScans(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	entries := randomCorpus(rng, 8, 8)
	targets := randomCorpus(rng, 8, 8)
	for _, prune := range []bool{false, true} {
		eng := New(entries, Config{Workers: 4, Prune: prune, Sim: similarity.DefaultOptions()})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				target := targets[g]
				got := eng.Scan(target)
				want := eng.ScanSerial(target)
				for i := range got {
					if !got[i].Pruned && got[i].Score != want[i].Score {
						t.Errorf("goroutine %d entry %d: %v != %v", g, i, got[i].Score, want[i].Score)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestScanEdgeCases(t *testing.T) {
	empty := &model.CSTBBS{Name: "empty"}
	full := randomBBS(rand.New(rand.NewSource(3)), 6)
	for len(full.Seq) == 0 {
		full = randomBBS(rand.New(rand.NewSource(4)), 6)
	}

	// Empty engine: no matches.
	if got := New(nil, Config{}).Scan(full); len(got) != 0 {
		t.Errorf("empty engine returned %d matches", len(got))
	}
	// Empty target vs non-empty entries: score 0 everywhere.
	eng := New([]*model.CSTBBS{full}, Config{})
	if got := eng.Scan(empty); got[0].Score != 0 {
		t.Errorf("empty target score = %v", got[0].Score)
	}
	// Empty entry vs empty target: identical, score 1.
	eng2 := New([]*model.CSTBBS{empty}, Config{Prune: true})
	if got := eng2.Scan(empty); got[0].Score != 1 {
		t.Errorf("empty-empty score = %v", got[0].Score)
	}
}

// internSeq interns one normalized instruction sequence.
func internSeq(c *DistCache, seq []string) uint32 { return c.intern(appendBlockKey(nil, seq)) }

func TestDistCache(t *testing.T) {
	c := NewDistCache()
	a := []string{"mov reg, mem", "add reg, imm"}
	b := []string{"mov reg, mem"}
	ia, ib := internSeq(c, a), internSeq(c, b)
	if ia == ib {
		t.Fatal("distinct sequences interned to one id")
	}
	if again := internSeq(c, append([]string(nil), a...)); again != ia {
		t.Error("equal sequence interned to a new id")
	}
	// Length-prefixing keeps adversarial token splits apart.
	x := internSeq(c, []string{"ab", "c"})
	y := internSeq(c, []string{"a", "bc"})
	if x == y {
		t.Error("collision between [ab c] and [a bc]")
	}
	d1 := c.normalized(ia, a, ib, b)
	d2 := c.normalized(ib, b, ia, a) // symmetric, canonical pair key
	if d1 != d2 {
		t.Errorf("asymmetric memo: %v vs %v", d1, d2)
	}
	if got := c.normalized(ia, a, ia, a); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	if blocks, pairs := c.Stats(); blocks != 4 || pairs != 1 {
		t.Errorf("stats = (%d,%d), want (4,1)", blocks, pairs)
	}
}

// Config.Semantics canonicalizes the fields a scan ignores, so two
// configurations that scan identically key the same engine and cache
// entry, while every field that changes the outcome keeps them apart.
func TestSemanticsCanonical(t *testing.T) {
	sim := similarity.DefaultOptions()
	same := []struct {
		name string
		a, b Config
	}{
		{"cascade ignored", Config{Prune: true, Index: true, Sim: sim}, Config{Prune: true, Index: true, Cascade: true, Sim: sim}},
		{"index ignored without prune", Config{Index: true, IndexClusters: 4, IndexMaxClusters: 2}, Config{}},
		{"clusters ignored without index", Config{Prune: true, IndexClusters: 4, IndexMaxClusters: 2}, Config{Prune: true}},
		{"default weights", Config{Sim: similarity.Options{Window: 3}}, Config{Sim: sim}},
		{"operational fields ignored", Config{Workers: 4, Cache: NewDistCache(), Sim: sim}, Config{Sim: sim}},
	}
	for _, c := range same {
		if c.a.Semantics() != c.b.Semantics() {
			t.Errorf("%s: %+v != %+v", c.name, c.a.Semantics(), c.b.Semantics())
		}
	}
	base := Config{Prune: true, Index: true, Sim: sim}
	distinct := []Config{
		{Prune: true, Index: true, IndexMaxClusters: 2, Sim: sim},
		{Prune: true, Index: true, IndexClusters: 5, Sim: sim},
		{Prune: true, Sim: sim},
		{Index: true, Sim: sim},
		{Prune: true, Index: true, Sim: similarity.Options{Window: 9}},
	}
	for _, c := range distinct {
		if c.Semantics() == base.Semantics() {
			t.Errorf("%+v aliases %+v", c.Semantics(), base.Semantics())
		}
	}
	if got := base.Semantics().Config().Semantics(); got != base.Semantics() {
		t.Errorf("Semantics().Config() round trip: %+v != %+v", got, base.Semantics())
	}
}
