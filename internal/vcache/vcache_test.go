package vcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

func key(target string) Key {
	return Key{Target: target, Version: 1, Semantics: scan.Config{Sim: similarity.DefaultOptions()}.Semantics()}
}

func fixed(ms []scan.Match) Compute {
	return func() ([]scan.Match, bool, error) { return ms, true, nil }
}

// one is a single-match outcome whose score tags which compute made it.
func one(score float64) []scan.Match { return []scan.Match{{Score: score}} }

// scoreOf reads the tag back (-1 for an empty outcome).
func scoreOf(ms []scan.Match) float64 {
	if len(ms) == 0 {
		return -1
	}
	return ms[0].Score
}

// TestNilCacheIsOff: every method on a nil *Cache degrades to
// pass-through computation, the same nil-is-off contract as
// telemetry.Collector.
func TestNilCacheIsOff(t *testing.T) {
	var c *Cache
	if c2 := New(0, nil); c2 != nil {
		t.Fatal("New(0) returned a live cache")
	}
	calls := 0
	for i := 0; i < 2; i++ {
		ms, hit, err := c.Do(context.Background(), key("t"), func() ([]scan.Match, bool, error) {
			calls++
			return one(7), true, nil
		})
		if err != nil || hit || scoreOf(ms) != 7 {
			t.Fatalf("nil Do = %+v hit=%v err=%v", ms, hit, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache memoized: %d compute calls, want 2", calls)
	}
	if c.Len() != 0 || c.Cap() != 0 || c.TelemetryGauges() != nil {
		t.Fatal("nil cache accessors not zero")
	}
}

// TestHitMissAndTelemetry: second lookup of a key is a hit; counters
// and gauges track it.
func TestHitMissAndTelemetry(t *testing.T) {
	tel := telemetry.NewCollector()
	c := New(4, tel)
	tel.RegisterGauges("vcache", c.TelemetryGauges)

	want := []scan.Match{{Index: 0, Score: 0.5}}
	ms, hit, err := c.Do(context.Background(), key("a"), fixed(want))
	if err != nil || hit {
		t.Fatalf("first Do hit=%v err=%v", hit, err)
	}
	ms, hit, err = c.Do(context.Background(), key("a"), func() ([]scan.Match, bool, error) {
		t.Fatal("compute ran on a cached key")
		return nil, false, nil
	})
	if err != nil || !hit || len(ms) != 1 || ms[0] != want[0] {
		t.Fatalf("cached Do = %+v hit=%v err=%v", ms, hit, err)
	}
	if h, m := tel.Counter(telemetry.VCacheHits), tel.Counter(telemetry.VCacheMisses); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
	g := c.TelemetryGauges()
	if g["entries"] != 1 || g["capacity"] != 4 {
		t.Fatalf("gauges = %v", g)
	}
}

// TestReturnedSlicesAreIndependent: a caller mutating its returned
// match slice must not corrupt the cached entry or other callers.
func TestReturnedSlicesAreIndependent(t *testing.T) {
	c := New(2, nil)
	stored := []scan.Match{{Index: 3, Score: 0.25}}
	if _, _, err := c.Do(context.Background(), key("a"), fixed(stored)); err != nil {
		t.Fatal(err)
	}
	ms1, _, _ := c.Do(context.Background(), key("a"), fixed(nil))
	ms1[0].Score = -99
	ms2, _, _ := c.Do(context.Background(), key("a"), fixed(nil))
	if ms2[0].Score != 0.25 {
		t.Fatalf("cached entry corrupted through a returned slice: %+v", ms2[0])
	}
}

// TestLRUEviction: past capacity the least recently used entry goes,
// recently touched entries stay.
func TestLRUEviction(t *testing.T) {
	tel := telemetry.NewCollector()
	c := New(2, tel)
	ctx := context.Background()
	for _, k := range []string{"a", "b"} {
		c.Do(ctx, key(k), fixed(nil))
	}
	// Touch "a" so "b" is the LRU victim.
	c.Do(ctx, key("a"), fixed(nil))
	c.Do(ctx, key("c"), fixed(nil))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if n := tel.Counter(telemetry.VCacheEvictions); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	recomputed := false
	c.Do(ctx, key("b"), func() ([]scan.Match, bool, error) {
		recomputed = true
		return nil, false, nil // probe only; don't disturb the LRU
	})
	if !recomputed {
		t.Fatal("evicted key still served from cache")
	}
	if _, hit, _ := c.Do(ctx, key("a"), fixed(nil)); !hit {
		t.Fatal("recently used key was evicted instead of the LRU one")
	}
}

// TestErrorsAndUncacheableResultsNotStored: a failed compute and a
// compute reporting cacheable=false (a degraded partial result) must
// both leave the cache empty, and the error path still returns the
// compute's result verbatim so partial matches reach the caller.
func TestErrorsAndUncacheableResultsNotStored(t *testing.T) {
	c := New(4, nil)
	ctx := context.Background()
	boom := errors.New("shard down")
	partial := []scan.Match{{Index: 1, Score: 0.5}}

	ms, hit, err := c.Do(ctx, key("err"), func() ([]scan.Match, bool, error) {
		return partial, false, boom
	})
	if !errors.Is(err, boom) || hit {
		t.Fatalf("Do = hit=%v err=%v", hit, err)
	}
	if len(ms) != 1 {
		t.Fatal("partial matches dropped on the error path")
	}
	ms, hit, err = c.Do(ctx, key("partial"), func() ([]scan.Match, bool, error) {
		return partial, false, nil // uncacheable but successful
	})
	if err != nil || hit || len(ms) != 1 {
		t.Fatalf("uncacheable Do = %+v hit=%v err=%v", ms, hit, err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after error + uncacheable computes, want 0", c.Len())
	}
}

// TestSingleflightCollapse: N concurrent lookups of one missing key run
// exactly one compute; the waiters share its result and are counted as
// collapsed.
func TestSingleflightCollapse(t *testing.T) {
	const n = 8
	tel := telemetry.NewCollector()
	c := New(4, tel)
	var computes atomic.Int32
	arrived := make(chan struct{}, n)
	release := make(chan struct{})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived <- struct{}{}
			ms, _, err := c.Do(context.Background(), key("hot"), func() ([]scan.Match, bool, error) {
				computes.Add(1)
				<-release // hold the flight open until everyone queued
				return one(42), true, nil
			})
			if err != nil || scoreOf(ms) != 42 {
				t.Errorf("collapsed Do = %+v, %v", ms, err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes for one key, want 1", got)
	}
	collapsed := tel.Counter(telemetry.VCacheCollapsed)
	hits := tel.Counter(telemetry.VCacheHits)
	if collapsed+hits != n-1 {
		t.Fatalf("collapsed=%d hits=%d, want them to cover the %d waiters", collapsed, hits, n-1)
	}
	if collapsed == 0 {
		t.Fatal("no lookup collapsed onto the in-flight compute")
	}
}

// TestFailedFlightDoesNotPoisonWaiters: when the leading compute fails,
// waiters do not inherit its error — they compute independently (the
// leader's context may have died for reasons that don't apply to them).
func TestFailedFlightDoesNotPoisonWaiters(t *testing.T) {
	c := New(4, nil)
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(context.Background(), key("k"), func() ([]scan.Match, bool, error) {
			close(leaderIn)
			<-release
			return nil, false, errors.New("leader's private failure")
		})
	}()
	<-leaderIn
	waiterDone := make(chan error, 1)
	go func() {
		ms, _, err := c.Do(context.Background(), key("k"), func() ([]scan.Match, bool, error) {
			return one(9), true, nil
		})
		if err == nil && scoreOf(ms) != 9 {
			err = fmt.Errorf("waiter got %+v", ms)
		}
		waiterDone <- err
	}()
	close(release)
	wg.Wait()
	if leaderErr == nil {
		t.Fatal("leader error lost")
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the leader's failure: %v", err)
	}
}

// TestWaiterHonorsContext: a waiter whose context dies while an
// in-flight compute holds the key returns the context error instead of
// blocking.
func TestWaiterHonorsContext(t *testing.T) {
	c := New(4, nil)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), key("k"), func() ([]scan.Match, bool, error) {
		close(leaderIn)
		<-release
		return nil, true, nil
	})
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, key("k"), fixed(nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLookupFaultBypassesCache: an armed vcache.lookup failpoint makes
// Do compute uncached — the classification still succeeds, nothing is
// stored, and the bypass is visible as a miss.
func TestLookupFaultBypassesCache(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	tel := telemetry.NewCollector()
	c := New(4, tel)
	ctx := context.Background()
	c.Do(ctx, key("a"), fixed(one(1)))

	faultinject.Enable(faultinject.VCacheLookup, faultinject.Error(errors.New("cache unavailable")))
	calls := 0
	ms, hit, err := c.Do(ctx, key("a"), func() ([]scan.Match, bool, error) {
		calls++
		return one(2), true, nil
	})
	if err != nil || hit || calls != 1 || scoreOf(ms) != 2 {
		t.Fatalf("bypassed Do = %+v hit=%v err=%v calls=%d", ms, hit, err, calls)
	}
	if c.Len() != 1 {
		t.Fatalf("bypassed compute was stored: Len = %d", c.Len())
	}
	faultinject.Reset()
	// With the fault gone the original cached entry is intact.
	ms, hit, _ = c.Do(ctx, key("a"), fixed(nil))
	if !hit || scoreOf(ms) != 1 {
		t.Fatalf("post-fault lookup = %+v hit=%v", ms, hit)
	}
}

// bbsFixture builds a tiny deterministic CST-BBS.
func bbsFixture(name string, delta float64) *model.CSTBBS {
	return &model.CSTBBS{
		Name:       name,
		TimerReads: 2,
		Seq: []model.CST{{
			Leader:     0x40,
			Before:     cache.State{AO: 0, IO: 1},
			After:      cache.State{AO: delta, IO: 1 - delta},
			NormInsns:  []string{"clflush mem", "rdtscp reg"},
			FirstCycle: 7,
			HPCValue:   3,
		}},
	}
}

// TestTargetHashProperties: the hash covers every scan-relevant field,
// ignores Name, and never collides trivially.
func TestTargetHashProperties(t *testing.T) {
	base := bbsFixture("a", 0.5)
	if TargetHash(base) != TargetHash(bbsFixture("renamed", 0.5)) {
		t.Fatal("Name participates in TargetHash; renamed identical binaries should share an entry")
	}
	variants := map[string]*model.CSTBBS{
		"delta":  bbsFixture("a", 0.25),
		"timer":  func() *model.CSTBBS { b := bbsFixture("a", 0.5); b.TimerReads = 9; return b }(),
		"leader": func() *model.CSTBBS { b := bbsFixture("a", 0.5); b.Seq[0].Leader = 0x80; return b }(),
		"cycle":  func() *model.CSTBBS { b := bbsFixture("a", 0.5); b.Seq[0].FirstCycle = 8; return b }(),
		"hpc":    func() *model.CSTBBS { b := bbsFixture("a", 0.5); b.Seq[0].HPCValue = 4; return b }(),
		"insns": func() *model.CSTBBS {
			b := bbsFixture("a", 0.5)
			b.Seq[0].NormInsns = []string{"clflush mem"}
			return b
		}(),
		"empty": {Name: "a"},
	}
	ref := TargetHash(base)
	seen := map[string]string{"base": ref}
	for tag, b := range variants {
		h := TargetHash(b)
		if h == ref {
			t.Errorf("%s: hash ignores the changed field", tag)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", tag, prev)
		}
		seen[h] = tag
	}
	// Length-prefixing means a boundary shift between instruction strings
	// cannot alias: ["ab","c"] != ["a","bc"].
	x := bbsFixture("a", 0.5)
	x.Seq[0].NormInsns = []string{"ab", "c"}
	y := bbsFixture("a", 0.5)
	y.Seq[0].NormInsns = []string{"a", "bc"}
	if TargetHash(x) == TargetHash(y) {
		t.Fatal("instruction strings not length-prefixed; boundary shifts alias")
	}
}

// TestKeySemanticsSeparateEntries: different versions and scan
// semantics never share an entry.
func TestKeySemanticsSeparateEntries(t *testing.T) {
	c := New(16, nil)
	ctx := context.Background()
	base := key("t")
	mutants := []Key{base}
	v2 := base
	v2.Version = 2
	pr := base
	pr.Semantics.Prune = true
	idx := pr
	idx.Semantics.Index = true
	w := base
	w.Semantics.Sim.Window = 9
	isw := base
	isw.Semantics.Sim.ISWeight = 0.9
	mutants = append(mutants, v2, pr, idx, w, isw)
	for i, k := range mutants {
		ms, hit, _ := c.Do(ctx, k, fixed(one(float64(i))))
		if hit {
			t.Fatalf("key %d aliased an earlier entry", i)
		}
		if scoreOf(ms) != float64(i) {
			t.Fatalf("key %d got result %v", i, scoreOf(ms))
		}
	}
	if c.Len() != len(mutants) {
		t.Fatalf("Len = %d, want %d distinct entries", c.Len(), len(mutants))
	}
}
