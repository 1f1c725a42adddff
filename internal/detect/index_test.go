package detect

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/attacks"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// stressRepo builds a small derived-seed variant corpus once per test
// binary — large enough that the index forms real clusters (variants of
// one PoC huddle together), small enough to keep `go test` quick.
var stressRepoCache *Repository

func stressRepo(t *testing.T) *Repository {
	t.Helper()
	if stressRepoCache == nil {
		r, err := BuildVariantRepository(CorpusConfig{PerFamily: 12, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		stressRepoCache = r
	}
	return stressRepoCache
}

// stressTargets returns a few classification targets: in-corpus
// variants (exact hits), a fresh PoC (family hit) and a benign-ish
// probe (whatever the repo scores it as — the point is agreement, not
// the verdict).
func stressTargets(t *testing.T) []*model.CSTBBS {
	t.Helper()
	var out []*model.CSTBBS
	for _, e := range stressRepo(t).Entries[:2] {
		out = append(out, e.BBS)
	}
	p := attacks.DefaultParams()
	for _, poc := range []attacks.PoC{attacks.FlushReloadNepoche(p), attacks.PrimeProbeIAIK(p)} {
		m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.BBS)
	}
	return out
}

// TestDetectorIndexedDifferential is the whole-detector bit-identity
// check: in process (shards=1) and over remote shard fleets, a
// detector in indexed mode must agree with the plain exact detector on the verdict,
// the best match's name and its bit-exact score — cold and warm through
// the verdict cache — and the best match must never be pruned.
func TestDetectorIndexedDifferential(t *testing.T) {
	repo := stressRepo(t)
	targets := stressTargets(t)

	ref := NewDetector(repo)
	for _, shards := range []int{1, 2, 7} {
		det := NewDetector(repo)
		det.Scan = scan.Config{Prune: true, Index: true}
		det.ResultCache = 64
		det.Telemetry = telemetry.NewCollector()
		if shards > 1 {
			// The servers count their index builds in the same collector.
			det.ShardAddrs = shardServers(t, repo, shards, shard.ServerConfig{Telemetry: det.Telemetry})
		}
		for pass := 0; pass < 2; pass++ { // cold, then warm via vcache
			for ti, bbs := range targets {
				want := ref.ClassifyBBS(bbs)
				got := det.ClassifyBBS(bbs)
				if got.Predicted != want.Predicted {
					t.Errorf("shards=%d pass=%d target=%d: predicted %s, want %s", shards, pass, ti, got.Predicted, want.Predicted)
				}
				if got.Best.Name != want.Best.Name || got.Best.Score != want.Best.Score {
					t.Errorf("shards=%d pass=%d target=%d: best %s %.17g, want %s %.17g",
						shards, pass, ti, got.Best.Name, got.Best.Score, want.Best.Name, want.Best.Score)
				}
				if got.Best.Pruned {
					t.Errorf("shards=%d pass=%d target=%d: best match reported pruned", shards, pass, ti)
				}
			}
		}
		snap := det.Telemetry.Snapshot()
		if snap.Counters["index_rebuilds"] == 0 {
			t.Errorf("shards=%d: indexed detector never built an index", shards)
		}
		det.Close()
	}
}

// TestDetectorIndexGrowth covers a repository that grows after the
// detector has scanned: through Add, and through a Replace whose
// entries keep the old ones as a pointer-identical prefix. Each growth
// makes the next scan build the index from scratch over every entry,
// and every appended entry must classify bit-identically to a fresh
// exact detector over the grown repository.
func TestDetectorIndexGrowth(t *testing.T) {
	base, err := BuildVariantRepository(CorpusConfig{PerFamily: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := BuildVariantRepository(CorpusConfig{PerFamily: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}

	det := NewDetector(base)
	det.Scan = scan.Config{Prune: true, Index: true}
	det.Telemetry = telemetry.NewCollector()
	defer det.Close()

	_ = det.ClassifyBBS(base.Entries[1].BBS) // cold: the first build
	if n := det.Telemetry.Snapshot().Counters["index_rebuilds"]; n != 1 {
		t.Fatalf("after first scan: index_rebuilds = %d, want 1", n)
	}

	// check classifies every appended entry and requires the rebuild
	// count, the index gauge and the verdicts a grown repository gives.
	check := func(stage string, appended []Entry, rebuilds uint64) {
		t.Helper()
		ref := NewDetector(base)
		for _, e := range appended {
			got, want := det.ClassifyBBS(e.BBS), ref.ClassifyBBS(e.BBS)
			if got.Predicted != want.Predicted || got.Best.Name != want.Best.Name || got.Best.Score != want.Best.Score {
				t.Errorf("%s: %s indexed verdict %s/%s/%.17g, exact %s/%s/%.17g", stage, e.Name,
					got.Predicted, got.Best.Name, got.Best.Score, want.Predicted, want.Best.Name, want.Best.Score)
			}
		}
		snap := det.Telemetry.Snapshot()
		if n := snap.Counters["index_rebuilds"]; n != rebuilds {
			t.Fatalf("%s: index_rebuilds = %d, want %d", stage, n, rebuilds)
		}
		if n := snap.Gauges["index"]["entries"]; n != uint64(base.Len()) {
			t.Fatalf("%s: index gauge entries = %d, want %d", stage, n, base.Len())
		}
	}

	added, replaced := extra.Entries[:6], extra.Entries[6:]
	for _, e := range added {
		base.Add(e.Name, e.Family, e.BBS)
	}
	check("after Add", added, 2)

	base.Replace(append(append([]Entry(nil), base.Entries...), replaced...))
	check("after append-only Replace", replaced, 3)
}

// TestVariantRepositoryDeterministic pins the corpus reproducibility
// guarantee end to end: two independent builds of the same CorpusConfig
// serialize to byte-identical repository files, whose digest is the one
// a serial build gave, and a different seed does not.
func TestVariantRepositoryDeterministic(t *testing.T) {
	save := func(cfg CorpusConfig) []byte {
		t.Helper()
		r, err := BuildVariantRepository(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := r.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cfg := CorpusConfig{PerFamily: 6, Seed: 42}
	a, b := save(cfg), save(cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same CorpusConfig produced different repository bytes")
	}
	// The digest of the serial, one-model-at-a-time build: the parallel
	// build and the simulator's fast paths must reproduce it exactly.
	const want = "d6c51984d93b23800f28207f6cce609394cce1d4240eceff8ca4e77f7d9a3f03"
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != want {
		t.Fatalf("corpus digest %s, want %s", got, want)
	}
	if c := save(CorpusConfig{PerFamily: 6, Seed: 43}); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corpora")
	}
	if o := save(CorpusConfig{PerFamily: 6, Seed: 42, Obfuscate: true}); bytes.Equal(a, o) {
		t.Fatal("obfuscation profile produced the light-profile corpus")
	}
}
