package detect

// Tests for the verdict result cache (internal/vcache) behind the
// detector API: differential bit-identity of cached verdicts,
// version-keyed invalidation through Repository.Add, singleflight
// collapse of concurrent identical targets, the never-cache-partials
// guarantee on degraded sharded scans, and the cold/warm benchmark
// behind `make bench-vcache`.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// freshRepo copies the shared test repository's entries into a new
// Repository that tests may mutate through Add without poisoning the
// package-wide fixture.
func freshRepo(t *testing.T) *Repository {
	t.Helper()
	src := repo(t)
	r := &Repository{}
	for _, e := range src.Entries {
		r.Add(e.Name, e.Family, e.BBS)
	}
	return r
}

// TestVerdictCacheExactBitIdentity: the headline differential — with
// the result cache on, every verdict is bit-identical
// (reflect.DeepEqual, exact floats) to the uncached single-engine
// detector, on the first pass (cold misses) and on the repeat pass,
// which must be served entirely from memory: zero additional repository
// scans, one hit per target.
func TestVerdictCacheExactBitIdentity(t *testing.T) {
	r := repo(t)
	ref := NewDetector(r)
	targets := repoTargets(r)
	want := make([]Result, len(targets))
	for i, bbs := range targets {
		want[i] = ref.ClassifyBBS(bbs)
	}

	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 16
	d.Telemetry = tel
	for pass := 0; pass < 2; pass++ {
		for ti, bbs := range targets {
			got, err := d.ClassifyBBSCtx(context.Background(), bbs)
			if err != nil {
				t.Fatalf("pass %d target %d: %v", pass, ti, err)
			}
			if !reflect.DeepEqual(got, want[ti]) {
				t.Fatalf("pass %d target %d: cached verdict diverged:\n got %+v\nwant %+v", pass, ti, got, want[ti])
			}
		}
	}
	n := uint64(len(targets))
	if scans := tel.Counter(telemetry.ScanTargets); scans != n {
		t.Errorf("scan_targets = %d over two passes, want %d (repeat pass must not scan)", scans, n)
	}
	if hits, misses := tel.Counter(telemetry.VCacheHits), tel.Counter(telemetry.VCacheMisses); hits != n || misses != n {
		t.Errorf("vcache hits=%d misses=%d, want %d/%d", hits, misses, n, n)
	}

	// The non-ctx API shares the same cache: a full pass over warm keys
	// is all hits and bit-identical too.
	if got := classifyEach(d, targets); !reflect.DeepEqual(got, want) {
		t.Fatal("cached non-ctx verdicts diverged from the uncached reference")
	}
	if scans := tel.Counter(telemetry.ScanTargets); scans != n {
		t.Errorf("scan_targets = %d after warm non-ctx pass, want still %d", scans, n)
	}
}

// TestVerdictCacheInvalidatedByAdd: Repository.Add bumps the version,
// so a previously cached verdict is recomputed against the grown
// repository — the new entry appears in the match list and the stale
// cached result is never served.
func TestVerdictCacheInvalidatedByAdd(t *testing.T) {
	r := freshRepo(t)
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 8
	d.Telemetry = tel
	target := r.Entries[0].BBS

	before := d.ClassifyBBS(target)
	if _, err := d.ClassifyBBSCtx(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	if hits := tel.Counter(telemetry.VCacheHits); hits != 1 {
		t.Fatalf("warm lookup hits = %d, want 1", hits)
	}

	r.Add("added-after-caching", attacks.FamilyFR, r.Entries[1].BBS)
	after := d.ClassifyBBS(target)
	if len(after.Matches) != len(before.Matches)+1 {
		t.Fatalf("post-Add verdict has %d matches, want %d — stale cached result served",
			len(after.Matches), len(before.Matches)+1)
	}
	found := false
	for _, m := range after.Matches {
		found = found || m.Name == "added-after-caching"
	}
	if !found {
		t.Fatal("post-Add verdict does not cover the new entry")
	}
	if misses := tel.Counter(telemetry.VCacheMisses); misses != 2 {
		t.Errorf("misses = %d, want 2 (cold + post-Add recompute)", misses)
	}

	// And the new key is cached in turn.
	scans := tel.Counter(telemetry.ScanTargets)
	if got := d.ClassifyBBS(target); !reflect.DeepEqual(got, after) {
		t.Fatal("re-cached post-Add verdict diverged")
	}
	if tel.Counter(telemetry.ScanTargets) != scans {
		t.Error("warm post-Add lookup still scanned")
	}
}

// TestVerdictCacheCollapsesConcurrentClassifies: many goroutines
// classifying the same cold target cost exactly one repository scan —
// either collapsed onto the in-flight compute or served from the entry
// it stored.
func TestVerdictCacheCollapsesConcurrentClassifies(t *testing.T) {
	const n = 8
	r := repo(t)
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 8
	d.Telemetry = tel
	target := r.Entries[0].BBS
	want := NewDetector(r).ClassifyBBS(target)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := d.ClassifyBBSCtx(context.Background(), target)
			if err != nil {
				t.Errorf("concurrent classify: %v", err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("concurrent cached verdict diverged")
			}
		}()
	}
	close(start)
	wg.Wait()
	if scans := tel.Counter(telemetry.ScanTargets); scans != 1 {
		t.Errorf("scan_targets = %d for %d identical classifications, want 1", scans, n)
	}
	hits := tel.Counter(telemetry.VCacheHits)
	collapsed := tel.Counter(telemetry.VCacheCollapsed)
	if hits+collapsed != n-1 {
		t.Errorf("hits=%d collapsed=%d, want them to cover the %d non-leading calls", hits, collapsed, n-1)
	}
}

// TestVerdictCachePartialNeverCached: a degraded sharded scan (two of
// three shards dead) returns a usable partial verdict but must not
// poison the cache — once the shards recover, the same target gets a
// full verdict, not a replayed partial one. The degradation itself is
// counted exactly once per scan, no matter how many shards died.
func TestVerdictCachePartialNeverCached(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	r := repo(t)
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.Shards = 3
	d.ResultCache = 8
	d.Telemetry = tel
	target := r.Entries[0].BBS

	full, err := d.ClassifyBBSCtx(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh detector state for the degraded pass: same repository, cold
	// cache, two of its three shards failing.
	d2 := NewDetector(r)
	d2.Shards = 3
	d2.ResultCache = 8
	d2.Telemetry = tel
	boom := errors.New("shard down")
	faultinject.Enable(faultinject.ShardScan, faultinject.Chain(
		faultinject.Match("1", faultinject.Error(boom)),
		faultinject.Match("2", faultinject.Error(boom)),
	))

	degraded := tel.Counter(telemetry.ShardDegradedScans)
	partial, err := d2.ClassifyBBSCtx(context.Background(), target)
	var pe *shard.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *shard.PartialError", err)
	}
	if len(pe.Failed) != 2 {
		t.Fatalf("%d failed shards reported, want 2", len(pe.Failed))
	}
	if got := tel.Counter(telemetry.ShardDegradedScans) - degraded; got != 1 {
		t.Fatalf("one degraded scan with two dead shards bumped shard_degraded_scans by %d, want exactly 1", got)
	}
	if len(partial.Matches) == 0 || len(partial.Matches) >= len(full.Matches) {
		t.Fatalf("partial verdict has %d matches (full has %d)", len(partial.Matches), len(full.Matches))
	}

	// Recovery: the shards come back; the cache must recompute, not
	// replay the partial verdict it was forbidden to store.
	faultinject.Reset()
	recovered, err := d2.ClassifyBBSCtx(context.Background(), target)
	if err != nil {
		t.Fatalf("post-recovery classify: %v", err)
	}
	if !reflect.DeepEqual(recovered, full) {
		t.Fatalf("post-recovery verdict diverged from the full one — partial result was cached:\n got %+v\nwant %+v", recovered, full)
	}
}

// TestVerdictCacheLookupFaultDegradesGracefully: with the vcache.lookup
// failpoint armed, every classification bypasses the cache and scans —
// verdicts stay correct, nothing breaks.
func TestVerdictCacheLookupFaultDegradesGracefully(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	r := repo(t)
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 8
	d.Telemetry = tel
	target := r.Entries[0].BBS
	want := NewDetector(r).ClassifyBBS(target)

	faultinject.Enable(faultinject.VCacheLookup, faultinject.Error(errors.New("cache unavailable")))
	for i := 0; i < 2; i++ {
		got, err := d.ClassifyBBSCtx(context.Background(), target)
		if err != nil {
			t.Fatalf("classify %d under lookup fault: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("classify %d under lookup fault diverged", i)
		}
	}
	if scans := tel.Counter(telemetry.ScanTargets); scans != 2 {
		t.Errorf("scan_targets = %d, want 2 (every bypassed lookup scans)", scans)
	}
	if hits := tel.Counter(telemetry.VCacheHits); hits != 0 {
		t.Errorf("hits = %d under a permanent lookup fault, want 0", hits)
	}
}

// BenchmarkVerdictCache quantifies the point of the cache: verdict/miss
// is a full repository scan per classification, verdict/hit is the
// same target answered from memory. The acceptance bar is a ≥5×
// speedup on the warm path (`make bench-vcache`).
func BenchmarkVerdictCache(b *testing.B) {
	p := attacks.DefaultParams()
	pocs := []attacks.PoC{
		attacks.FlushReloadIAIK(p),
		attacks.PrimeProbeIAIK(p),
		attacks.SpectreFRIdea(p),
		attacks.SpectrePPTrippel(p),
	}
	r, err := BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	// Grow the repository to a deployment-sized model count (the paper's
	// evaluation carries many variants per family): the miss path scales
	// with repository size, the hit path must not.
	for len(r.Entries) < 64 {
		src := r.Entries[len(r.Entries)%len(pocs)]
		r.Add(fmt.Sprintf("%s-v%d", src.Name, len(r.Entries)), src.Family, src.BBS)
	}
	target := r.Entries[0].BBS

	b.Run("miss", func(b *testing.B) {
		d := NewDetector(r)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := d.ClassifyBBS(target); res.Predicted == "" {
				b.Fatal("empty prediction")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		d := NewDetector(r)
		d.ResultCache = 8
		d.ClassifyBBS(target) // warm the one entry
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := d.ClassifyBBS(target); res.Predicted == "" {
				b.Fatal("empty prediction")
			}
		}
	})
}
