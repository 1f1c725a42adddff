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
	"time"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/panicsafe"
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
	addrs := shardServers(t, r, 3, shard.ServerConfig{})
	d := NewDetector(r)
	d.ShardAddrs = addrs
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
	d2.ShardAddrs = addrs
	d2.ResultCache = 8
	d2.Telemetry = tel
	boom := errors.New("shard down")
	faultinject.Enable(faultinject.ShardScan, faultinject.Chain(
		faultinject.Match(addrs[1], faultinject.Error(boom)),
		faultinject.Match(addrs[2], faultinject.Error(boom)),
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

// gatedBenign returns a benign program the default detector gates out
// before scanning for reading no timer, although its model is long
// enough to scan.
func gatedBenign(t testing.TB, d *Detector) *isa.Program {
	t.Helper()
	for _, kind := range benign.Kinds() {
		for _, tmpl := range benign.Templates(kind) {
			prog := benign.MustGenerate(benign.Spec{Kind: kind, Template: tmpl, Seed: 7})
			m, err := model.Build(prog, nil, d.ModelCfg)
			if err != nil {
				t.Fatal(err)
			}
			if d.GateReason(m.BBS) == GateNoTimerReads {
				return prog
			}
		}
	}
	t.Fatal("no benign program gated for its missing timer reads")
	return nil
}

// counters reads the counters the program-key tests account with.
func counters(tel *telemetry.Collector) [4]uint64 {
	return [4]uint64{
		tel.Counter(telemetry.ModelBuilds), tel.Counter(telemetry.ScanTargets),
		tel.Counter(telemetry.VCacheHits), tel.Counter(telemetry.VCacheProgramHits),
	}
}

// TestVerdictCacheProgramPathsAgree: the three ways ClassifyCtx can
// answer — cold (model and scan), program-key hit (neither) and
// model-key hit (a renamed copy: modeled again, scan reused) — give
// reflect.DeepEqual results and equal CST-BBSes, equal to an uncached
// detector's. A program hit returns a model with only Name and BBS.
func TestVerdictCacheProgramPathsAgree(t *testing.T) {
	r := repo(t)
	poc := attacks.FlushReloadMastik(attacks.DefaultParams())
	ctx := context.Background()
	want, wantM, err := NewDetector(r).ClassifyCtx(ctx, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 8
	d.Telemetry = tel
	cold, coldM, err := d.ClassifyCtx(ctx, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if coldM.CFG == nil {
		t.Error("the call that modeled did not return the whole model")
	}
	c0 := counters(tel)
	if c0 != [4]uint64{1, 1, 0, 0} {
		t.Fatalf("cold [builds scans hits program-hits] = %v, want [1 1 0 0]", c0)
	}

	hit, hitM, err := d.ClassifyCtx(ctx, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if c := counters(tel); c != [4]uint64{1, 1, 1, 1} {
		t.Fatalf("program hit [builds scans hits program-hits] = %v, want [1 1 1 1]", c)
	}
	if slim := (model.Model{Name: poc.Program.Name, BBS: hitM.BBS}); !reflect.DeepEqual(*hitM, slim) {
		t.Errorf("program hit model = %+v, want only Name and BBS", *hitM)
	}

	renamed := *poc.Program
	renamed.Name = "renamed-copy"
	ren, renM, err := d.ClassifyCtx(ctx, &renamed, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if c := counters(tel); c != [4]uint64{2, 1, 2, 1} {
		t.Fatalf("model-key hit [builds scans hits program-hits] = %v, want [2 1 2 1]", c)
	}

	for name, got := range map[string]Result{"cold": cold, "program hit": hit, "model-key hit": ren} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s result diverged:\n got %+v\nwant %+v", name, got, want)
		}
	}
	if !reflect.DeepEqual(coldM.BBS, wantM.BBS) || !reflect.DeepEqual(hitM.BBS, wantM.BBS) {
		t.Error("cold or program-hit CST-BBS diverged from the uncached model")
	}
	renBBS := *renM.BBS
	renBBS.Name = wantM.BBS.Name
	if !reflect.DeepEqual(&renBBS, wantM.BBS) {
		t.Error("renamed copy's CST-BBS differs beyond its name")
	}
}

// TestVerdictCacheProgramRescanAfterAdd: Repository.Add between two
// calls on the same program bumps the version in its program key, so
// the second call models and scans again and covers the new entry.
func TestVerdictCacheProgramRescanAfterAdd(t *testing.T) {
	r := freshRepo(t)
	poc := attacks.FlushReloadMastik(attacks.DefaultParams())
	ctx := context.Background()
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 8
	d.Telemetry = tel
	before, _, err := d.ClassifyCtx(ctx, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	r.Add("added-after-caching", attacks.FamilyFR, r.Entries[1].BBS)
	after, _, err := d.ClassifyCtx(ctx, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if c := counters(tel); c != [4]uint64{2, 2, 0, 0} {
		t.Fatalf("[builds scans hits program-hits] = %v, want [2 2 0 0]: the post-Add call must model and scan", c)
	}
	if len(after.Matches) != len(before.Matches)+1 {
		t.Fatalf("post-Add verdict has %d matches, want %d", len(after.Matches), len(before.Matches)+1)
	}
}

// TestVerdictCacheProgramCollapse: concurrent classifications of one
// cold program build one model and run one scan (run it under -race).
func TestVerdictCacheProgramCollapse(t *testing.T) {
	const n = 8
	r := repo(t)
	poc := attacks.FlushReloadMastik(attacks.DefaultParams())
	want, _, err := NewDetector(r).ClassifyCtx(context.Background(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 8
	d.Telemetry = tel
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, m, err := d.ClassifyCtx(context.Background(), poc.Program, poc.Victim)
			if err != nil || m == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent classify diverged: err=%v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if c := counters(tel); c[0] != 1 || c[1] != 1 {
		t.Errorf("model_builds=%d scan_targets=%d for %d identical programs, want 1/1", c[0], c[1], n)
	}
	if served := tel.Counter(telemetry.VCacheProgramHits); served != n-1 {
		t.Errorf("vcache_program_hits = %d, want %d", served, n-1)
	}
}

// TestVerdictCacheGatedProgramMemoized: a gated program is stored too,
// with no matches, so repeating it models nothing; it still counts as a
// gated classification every time. Relaxing the gate afterwards scans
// the memoized model instead of replaying the gated verdict.
func TestVerdictCacheGatedProgramMemoized(t *testing.T) {
	r := repo(t)
	ctx := context.Background()
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ResultCache = 8
	d.Telemetry = tel
	prog := gatedBenign(t, d)
	for i := 0; i < 2; i++ {
		res, m, err := d.ClassifyCtx(ctx, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, benignResult()) || m.BBS == nil {
			t.Fatalf("call %d: gated result %+v", i, res)
		}
	}
	if c := counters(tel); c != [4]uint64{1, 0, 1, 1} {
		t.Fatalf("[builds scans hits program-hits] = %v, want [1 0 1 1]", c)
	}
	if g := tel.Counter(telemetry.DetectGated); g != 2 {
		t.Fatalf("detect_gated = %d, want 2", g)
	}

	d.RequireTimer = false
	ref := NewDetector(r)
	ref.RequireTimer = false
	want, wantM, err := ref.ClassifyCtx(ctx, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.GateReason(wantM.BBS) != "" || len(want.Matches) == 0 {
		t.Fatal("the relaxed reference did not scan the program")
	}
	got, _, err := d.ClassifyCtx(ctx, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("relaxed gate replayed the gated verdict:\n got %+v\nwant %+v", got, want)
	}
}

// TestVerdictCacheProgramModelPanic: a modeling panic behind a program
// key comes back as the target's *panicsafe.PanicError, is not stored,
// and does not leave the key blocked: once the fault is gone the same
// program classifies normally.
func TestVerdictCacheProgramModelPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	poc := attacks.FlushReloadMastik(attacks.DefaultParams())
	d := NewDetector(repo(t))
	d.ResultCache = 8
	faultinject.Enable(faultinject.ModelBuild,
		faultinject.Match(poc.Program.Name, faultinject.Panic("model crash")))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err := d.ClassifyCtx(ctx, poc.Program, poc.Victim)
	var pe *panicsafe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *panicsafe.PanicError", err)
	}
	faultinject.Reset()
	if _, _, err := d.ClassifyCtx(ctx, poc.Program, poc.Victim); err != nil {
		t.Fatalf("after the fault: %v", err)
	}
}

// BenchmarkVerdictCache quantifies the point of the cache: verdict/miss
// is a full repository scan per classification, verdict/hit is the
// same target answered from memory by its model key. The acceptance bar
// is a ≥5× speedup on the warm path (`make bench-vcache`). The program
// cases classify a program end to end through ClassifyCtx:
// program-cold models and scans every time, program-hit is answered by
// the program key without modeling.
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
	for _, c := range []struct {
		name  string
		cache int
	}{{"program-cold", 0}, {"program-hit", 8}} {
		b.Run(c.name, func(b *testing.B) {
			d := NewDetector(r)
			d.ResultCache = c.cache
			classify := func() {
				res, _, err := d.ClassifyCtx(context.Background(), pocs[0].Program, pocs[0].Victim)
				if err != nil || res.Predicted == "" {
					b.Fatalf("classify: %v", err)
				}
			}
			classify() // build the engine; warm the program key
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				classify()
			}
		})
	}
}
