package scan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// synthBBS builds a random but deterministic CST-BBS: a handful of
// blocks with short normalized-instruction sequences over a small
// vocabulary (so block pairs recur, like real corpora) and random cache
// state transitions.
func synthBBS(rng *rand.Rand, name string) *model.CSTBBS {
	words := []string{
		"mov r0, [m0]", "clflush [m0]", "rdtscp", "add r0, r1",
		"cmp r0, 4", "jl L0", "xor r1, r1", "mov [m1], r0",
	}
	n := 2 + rng.Intn(12)
	seq := make([]model.CST, n)
	for i := range seq {
		ni := make([]string, 1+rng.Intn(4))
		for k := range ni {
			ni[k] = words[rng.Intn(len(words))]
		}
		seq[i] = model.CST{
			Leader:     uint64(0x1000 + 16*i),
			Before:     cache.State{AO: float64(rng.Intn(8)), IO: float64(rng.Intn(8))},
			After:      cache.State{AO: float64(rng.Intn(8)), IO: float64(rng.Intn(8))},
			NormInsns:  ni,
			FirstCycle: uint64(i),
		}
	}
	return &model.CSTBBS{Name: name, Seq: seq, TimerReads: 1}
}

func synthModels(rng *rand.Rand, n int) []*model.CSTBBS {
	ms := make([]*model.CSTBBS, n)
	for i := range ms {
		ms[i] = synthBBS(rng, fmt.Sprintf("m%03d", i))
	}
	return ms
}

// TestIndexedScanBestIdentity is the descent-soundness property test:
// over many randomized repositories and targets, the indexed engine's
// best match — winner and bit-exact score — must equal the exact
// engine's, for default and forced cluster counts. This is exactly the
// claim the triangle-inequality gate could break if it were trusted
// for skips (the normalized DTW distance is not a metric); the
// certificate design keeps it true.
func TestIndexedScanBestIdentity(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		models := synthModels(rng, 10+rng.Intn(50))
		exact := New(models, Config{Workers: 1})
		flat := New(models, Config{Workers: 1, Prune: true})
		for _, clusters := range []int{0, 1, 3, len(models)} {
			eng := New(models, Config{Workers: 1, Prune: true, Index: true, IndexClusters: clusters})
			if eng.idx == nil {
				t.Fatalf("seed %d clusters %d: index not built", seed, clusters)
			}
			for ti := 0; ti < 4; ti++ {
				tgt := synthBBS(rng, "target")
				want := bestOf(exact.Scan(tgt))
				gotFlat := bestOf(flat.Scan(tgt))
				got := bestOf(eng.Scan(tgt))
				if got.Index != want.Index || got.Score != want.Score || got.Pruned {
					t.Fatalf("seed %d clusters %d target %d: indexed best (%d, %v, pruned=%v), exact best (%d, %v)",
						seed, clusters, ti, got.Index, got.Score, got.Pruned, want.Index, want.Score)
				}
				if gotFlat.Index != want.Index || gotFlat.Score != want.Score {
					t.Fatalf("seed %d: flat pruned best diverged from exact (harness bug)", seed)
				}
			}
		}
	}
}

// TestIndexedScanBestIdentityFamilies is the same property over
// family-structured corpora with in-family targets — the regime where
// the skip gate actually fires, so the certificate path (not just the
// descend path) is what must preserve the winner.
func TestIndexedScanBestIdentityFamilies(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		models := synthFamilies(rng, 3+rng.Intn(5), 4+rng.Intn(10))
		exact := New(models, Config{Workers: 1})
		eng := New(models, Config{Workers: 1, Prune: true, Index: true})
		for ti := 0; ti < 6; ti++ {
			var tgt *model.CSTBBS
			if ti%2 == 0 {
				src := models[rng.Intn(len(models))]
				tgt = &model.CSTBBS{Name: "t", Seq: src.Seq, TimerReads: 1}
			} else {
				tgt = synthBBS(rng, "t")
			}
			want, got := bestOf(exact.Scan(tgt)), bestOf(eng.Scan(tgt))
			if got.Index != want.Index || got.Score != want.Score || got.Pruned {
				t.Fatalf("seed %d target %d: indexed best (%d, %v, pruned=%v), exact (%d, %v)",
					seed, ti, got.Index, got.Score, got.Pruned, want.Index, want.Score)
			}
		}
	}
}

// TestIndexedScanDeterministic: within one target the indexed descent
// is sequential, so the full match list — including which entries
// report Pruned — is reproducible run to run and across worker counts
// (each target is one work item with a private cutoff).
func TestIndexedScanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	models := synthModels(rng, 40)
	targets := make([]*model.CSTBBS, 6)
	for i := range targets {
		targets[i] = synthBBS(rng, fmt.Sprintf("t%d", i))
	}
	a := New(models, Config{Workers: 4, Prune: true, Index: true})
	b := New(models, Config{Workers: 2, Prune: true, Index: true})
	for i, tgt := range targets {
		ra, err := a.ScanCtx(context.Background(), tgt)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.ScanCtx(context.Background(), tgt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("target %d: indexed match lists differ across runs/worker counts", i)
		}
	}
}

func TestIndexedScanWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := synthModels(rng, 25)
	eng := New(models, Config{Workers: 1, Prune: true, Index: true})
	ms := eng.Scan(synthBBS(rng, "t"))
	if len(ms) != len(models) {
		t.Fatalf("got %d matches, want %d", len(ms), len(models))
	}
	for i, m := range ms {
		if m.Index != i {
			t.Fatalf("match %d carries index %d", i, m.Index)
		}
		if m.Score < 0 || m.Score > 1 {
			t.Fatalf("match %d score %v out of range", i, m.Score)
		}
	}
}

// TestIndexedEngineDegradesOnBuildFault: an injected index.build fault
// must leave a working engine that scans the flat pruned path with the
// exact same best match — never a failed classification.
func TestIndexedEngineBuildFaultDegrades(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(11))
	models := synthModels(rng, 20)
	tgt := synthBBS(rng, "t")
	want := bestOf(New(models, Config{Workers: 1}).Scan(tgt))

	faultinject.Enable(faultinject.IndexBuild, faultinject.Error(errors.New("injected")))
	eng := New(models, Config{Workers: 1, Prune: true, Index: true})
	faultinject.Reset()
	if eng.idx != nil {
		t.Fatal("index should have degraded under the build fault")
	}
	got := bestOf(eng.Scan(tgt))
	if got.Index != want.Index || got.Score != want.Score {
		t.Fatalf("degraded engine best (%d, %v), want (%d, %v)", got.Index, got.Score, want.Index, want.Score)
	}
}

// TestIndexedApproxMode: the MaxClusters recall knob yields well-formed
// results whose exactly-scored entries (all prototypes among them) are
// correct, and the clamped estimates of force-skipped members can never
// outrank the exact winner.
func TestIndexedApproxMode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	models := synthModels(rng, 40)
	eng := New(models, Config{Workers: 1, Prune: true, Index: true, IndexMaxClusters: 1})
	exact := New(models, Config{Workers: 1})
	for ti := 0; ti < 4; ti++ {
		tgt := synthBBS(rng, "t")
		ms := eng.Scan(tgt)
		ref := exact.Scan(tgt)
		if len(ms) != len(models) {
			t.Fatalf("got %d matches", len(ms))
		}
		best := bestOf(ms)
		if best.Pruned {
			t.Fatal("approximate best match reported pruned — estimates outranked the exact winner")
		}
		for i, m := range ms {
			if !m.Pruned && m.Score != ref[i].Score {
				t.Fatalf("entry %d scored %v, exact %v", i, m.Score, ref[i].Score)
			}
		}
	}
}

// synthFamilies builds a family-structured corpus: nFam base models,
// each with perFam near-duplicate variants (one cache state nudged), so
// clusters are tight and the index's skip gate has something to bite
// on — the shape the index targets in production.
func synthFamilies(rng *rand.Rand, nFam, perFam int) []*model.CSTBBS {
	var out []*model.CSTBBS
	for f := 0; f < nFam; f++ {
		base := synthBBS(rng, fmt.Sprintf("fam%d", f))
		for v := 0; v < perFam; v++ {
			m := &model.CSTBBS{Name: fmt.Sprintf("fam%d-v%d", f, v), Seq: append([]model.CST(nil), base.Seq...), TimerReads: 1}
			i := rng.Intn(len(m.Seq))
			m.Seq[i].After.AO += float64(rng.Intn(3)) * 0.25
			out = append(out, m)
		}
	}
	return out
}

func TestIndexedTelemetry(t *testing.T) {
	tel := telemetry.NewCollector()
	rng := rand.New(rand.NewSource(5))
	models := synthFamilies(rng, 6, 8)
	eng := New(models, Config{Workers: 1, Prune: true, Index: true, IndexClusters: 6, Telemetry: tel})
	if got := tel.Counter(telemetry.IndexRebuilds); got != 1 {
		t.Fatalf("index_rebuilds = %d, want 1", got)
	}
	for i := 0; i < 6; i++ {
		tgt := models[rng.Intn(len(models))] // in-family target: tight best, far clusters gate out
		eng.Scan(&model.CSTBBS{Name: "t", Seq: tgt.Seq, TimerReads: 1})
	}
	desc := tel.Counter(telemetry.IndexClustersDescended)
	skip := tel.Counter(telemetry.IndexClustersSkipped)
	if desc == 0 {
		t.Error("index_clusters_descended never fired")
	}
	if skip == 0 {
		t.Error("index_clusters_skipped never fired over 6 scans")
	}
	snap := tel.Snapshot()
	if snap.Gauges["index"]["clusters"] == 0 {
		t.Errorf("index gauge group missing: %v", snap.Gauges)
	}
}

// FuzzIndexDescend hunts for targets/repositories where the indexed
// descent loses the true best match — the bit-identity claim under
// fuzzed model shapes.
func FuzzIndexDescend(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(0), int64(2))
	f.Add(int64(3), uint8(40), uint8(3), int64(4))
	f.Add(int64(5), uint8(9), uint8(9), int64(6))
	f.Fuzz(func(t *testing.T, seed int64, n, k uint8, tseed int64) {
		nm := 2 + int(n)%60
		rng := rand.New(rand.NewSource(seed))
		models := synthModels(rng, nm)
		exact := New(models, Config{Workers: 1})
		eng := New(models, Config{Workers: 1, Prune: true, Index: true, IndexClusters: int(k) % (nm + 1)})
		tgt := synthBBS(rand.New(rand.NewSource(tseed)), "t")
		want := bestOf(exact.Scan(tgt))
		got := bestOf(eng.Scan(tgt))
		if got.Index != want.Index || got.Score != want.Score {
			t.Fatalf("indexed best (%d, %v), exact best (%d, %v)", got.Index, got.Score, want.Index, want.Score)
		}
	})
}

// TestIndexedScanBestIdentityMutated runs the best-identity property
// over mutation-generated repositories — real modeled attack variants
// (internal/dataset + internal/model), not synthetic CST-BBSes. The
// mutated variants of one PoC form genuinely tight clusters with the
// occasional outlier, the structure the gate-then-certify descent has
// to get right in production.
func TestIndexedScanBestIdentityMutated(t *testing.T) {
	if testing.Short() {
		t.Skip("modeling a mutated corpus is slow for -short")
	}
	var models []*model.CSTBBS
	for _, fam := range []attacks.Family{attacks.FamilyFR, attacks.FamilyPP} {
		samples, err := dataset.AttackSamples(fam, 10, 17, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			m, err := model.Build(s.Program, s.Victim, model.DefaultConfig())
			if err != nil {
				t.Fatalf("modeling %s: %v", s.Name, err)
			}
			models = append(models, m.BBS)
		}
	}

	// Targets: an in-repository variant, a fresh mutated variant of a
	// known family, and a variant of a family the repo also holds.
	fresh, err := dataset.AttackSamples(attacks.FamilyFR, 3, 99, false)
	if err != nil {
		t.Fatal(err)
	}
	targets := []*model.CSTBBS{models[3], models[len(models)-1]}
	for _, s := range fresh {
		m, err := model.Build(s.Program, s.Victim, model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, m.BBS)
	}

	exact := New(models, Config{Workers: 1})
	for _, clusters := range []int{0, 3, 8} {
		eng := New(models, Config{Workers: 1, Prune: true, Index: true, IndexClusters: clusters})
		for ti, tgt := range targets {
			want, got := bestOf(exact.Scan(tgt)), bestOf(eng.Scan(tgt))
			if got.Index != want.Index || got.Score != want.Score || got.Pruned {
				t.Fatalf("clusters=%d target %d: indexed best (%d, %v, pruned=%v), exact (%d, %v)",
					clusters, ti, got.Index, got.Score, got.Pruned, want.Index, want.Score)
			}
		}
	}
}
