package vcache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

func key(target string) Key {
	return Key{Target: target, Version: 1, Semantics: scan.Config{Sim: similarity.DefaultOptions()}.Semantics()}
}

func fixed(ms []scan.Match) Compute {
	return func() (Value, bool, error) { return Value{Matches: ms}, true, nil }
}

// one is a single-match outcome whose score tags which compute made it.
func one(score float64) []scan.Match { return []scan.Match{{Score: score}} }

// scoreOf reads the tag back (-1 for an empty outcome).
func scoreOf(v Value) float64 {
	if len(v.Matches) == 0 {
		return -1
	}
	return v.Matches[0].Score
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
		ms, hit, err := c.Do(context.Background(), key("t"), func() (Value, bool, error) {
			calls++
			return Value{Matches: one(7)}, true, nil
		})
		if err != nil || hit || scoreOf(ms) != 7 {
			t.Fatalf("nil Do = %+v hit=%v err=%v", ms, hit, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache memoized: %d compute calls, want 2", calls)
	}
	if c.Len() != 0 || c.TelemetryGauges() != nil {
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
	ms, hit, err = c.Do(context.Background(), key("a"), func() (Value, bool, error) {
		t.Fatal("compute ran on a cached key")
		return Value{}, false, nil
	})
	if err != nil || !hit || len(ms.Matches) != 1 || ms.Matches[0] != want[0] {
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
	ms1.Matches[0].Score = -99
	ms2, _, _ := c.Do(context.Background(), key("a"), fixed(nil))
	if ms2.Matches[0].Score != 0.25 {
		t.Fatalf("cached entry corrupted through a returned slice: %+v", ms2.Matches[0])
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
	c.Do(ctx, key("b"), func() (Value, bool, error) {
		recomputed = true
		return Value{}, false, nil // probe only; don't disturb the LRU
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

	ms, hit, err := c.Do(ctx, key("err"), func() (Value, bool, error) {
		return Value{Matches: partial}, false, boom
	})
	if !errors.Is(err, boom) || hit {
		t.Fatalf("Do = hit=%v err=%v", hit, err)
	}
	if len(ms.Matches) != 1 {
		t.Fatal("partial matches dropped on the error path")
	}
	ms, hit, err = c.Do(ctx, key("partial"), func() (Value, bool, error) {
		return Value{Matches: partial}, false, nil // uncacheable but successful
	})
	if err != nil || hit || len(ms.Matches) != 1 {
		t.Fatalf("uncacheable Do = %+v hit=%v err=%v", ms, hit, err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after error + uncacheable computes, want 0", c.Len())
	}
}

// joinCtx signals joined each time Do asks for Done: Do does that only
// when it is about to wait on another caller's in-flight compute.
type joinCtx struct {
	context.Context
	joined chan<- struct{}
}

func (c joinCtx) Done() <-chan struct{} {
	c.joined <- struct{}{}
	return c.Context.Done()
}

// TestSingleflightCollapse: N concurrent lookups of one missing key run
// exactly one compute; the waiters share its result and are counted as
// collapsed.
func TestSingleflightCollapse(t *testing.T) {
	const n = 8
	tel := telemetry.NewCollector()
	c := New(4, tel)
	var computes atomic.Int32
	joined := make(chan struct{}, n)
	ctx := joinCtx{Context: context.Background(), joined: joined}
	release := make(chan struct{})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, _, err := c.Do(ctx, key("hot"), func() (Value, bool, error) {
				computes.Add(1)
				<-release // hold the flight open until everyone queued
				return Value{Matches: one(42)}, true, nil
			})
			if err != nil || scoreOf(ms) != 42 {
				t.Errorf("collapsed Do = %+v, %v", ms, err)
			}
		}()
	}
	// One caller leads the flight and blocks in compute; release it only
	// once the other n-1 are waiting on that flight.
	for i := 0; i < n-1; i++ {
		<-joined
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
		_, _, leaderErr = c.Do(context.Background(), key("k"), func() (Value, bool, error) {
			close(leaderIn)
			<-release
			return Value{}, false, errors.New("leader's private failure")
		})
	}()
	<-leaderIn
	waiterDone := make(chan error, 1)
	go func() {
		ms, _, err := c.Do(context.Background(), key("k"), func() (Value, bool, error) {
			return Value{Matches: one(9)}, true, nil
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
	go c.Do(context.Background(), key("k"), func() (Value, bool, error) {
		close(leaderIn)
		<-release
		return Value{}, true, nil
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
	ms, hit, err := c.Do(ctx, key("a"), func() (Value, bool, error) {
		calls++
		return Value{Matches: one(2)}, true, nil
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

// TestPanickingComputeReleasesWaiters: a compute that panics must not
// leave its flight open — a waiter computes on its own instead of
// blocking forever — and nothing is stored.
func TestPanickingComputeReleasesWaiters(t *testing.T) {
	c := New(4, nil)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan any, 1)
	go func() {
		defer func() { leaderOut <- recover() }()
		c.Do(context.Background(), key("k"), func() (Value, bool, error) {
			close(leaderIn)
			<-release
			panic("compute crash")
		})
	}()
	<-leaderIn
	waiter := make(chan Value, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), key("k"), fixed(one(5)))
		waiter <- v
	}()
	close(release)
	if r := <-leaderOut; r != "compute crash" {
		t.Fatalf("leader recovered %v, want the compute's panic", r)
	}
	if v := <-waiter; scoreOf(v) != 5 {
		t.Fatalf("waiter got %+v, want its own compute", v)
	}
	if _, hit, _ := c.Do(context.Background(), key("k"), fixed(nil)); !hit {
		t.Fatal("the waiter's successful compute was not stored")
	}
}

// TestProgramKeysShareTheCache: a program key and a model key with the
// same Target are different entries in the one LRU; a program hit hands
// back the stored CST-BBS itself and counts under vcache_program_hits.
func TestProgramKeysShareTheCache(t *testing.T) {
	tel := telemetry.NewCollector()
	c := New(4, tel)
	ctx := context.Background()
	pk := key("t")
	pk.Program = true
	bbs := bbsFixture("p", 0)
	c.Do(ctx, key("t"), fixed(one(1)))
	if _, hit, _ := c.Do(ctx, pk, func() (Value, bool, error) {
		return Value{BBS: bbs, Matches: one(2)}, true, nil
	}); hit {
		t.Fatal("program key aliased the model key")
	}
	v, hit, _ := c.Do(ctx, pk, fixed(nil))
	if !hit || v.BBS != bbs || scoreOf(v) != 2 {
		t.Fatalf("program hit = %+v hit=%v", v, hit)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (one per kind)", c.Len())
	}
	if got := tel.Counter(telemetry.VCacheProgramHits); got != 1 {
		t.Fatalf("vcache_program_hits = %d, want 1", got)
	}
	if got := tel.Counter(telemetry.VCacheHits); got != 1 {
		t.Fatalf("vcache_hits = %d, want 1", got)
	}
}

// digestFixture is a two-instruction program with a data segment, a
// victim and the default model configuration.
func digestFixture() (prog, victim *isa.Program, cfg model.Config) {
	mk := func(name string) *isa.Program {
		return &isa.Program{
			Name:  name,
			Entry: 0x1000,
			Insns: []isa.Instruction{
				{Addr: 0x1000, Size: 4, Op: isa.MOV, Dst: isa.R(isa.R1), Src: isa.Mem(isa.R2, 8)},
				{Addr: 0x1004, Size: 1, Op: isa.HLT},
			},
			Data:   []isa.DataSegment{{Name: "tab", Addr: 0x8000, Size: 64, Init: []byte{1, 2, 3}}},
			Labels: map[string]uint64{"start": 0x1000},
		}
	}
	return mk("spy"), mk("victim"), model.DefaultConfig()
}

// TestProgramHashFields: every input modeling reads changes the digest;
// what it never reads (the Attack marks, Labels, the Telemetry
// collector) does not.
func TestProgramHashFields(t *testing.T) {
	p0, v0, c0 := digestFixture()
	base := ProgramHash(p0, v0, c0)
	if again := ProgramHash(digestFixture()); again != base {
		t.Fatal("ProgramHash is not deterministic")
	}
	cases := []struct {
		name    string
		mutate  func(p, v *isa.Program, c *model.Config) (*isa.Program, *isa.Program)
		changes bool
	}{
		{"operand displacement", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Insns[0].Src.Disp = 16
			return p, v
		}, true},
		{"operand register", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Insns[0].Dst.Base = isa.R3
			return p, v
		}, true},
		{"opcode", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Insns[0].Op = isa.ADD
			return p, v
		}, true},
		{"data byte", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Data[0].Init[1] = 9
			return p, v
		}, true},
		{"victim data byte", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			v.Data[0].Init[0] = 9
			return p, v
		}, true},
		{"victim absent", func(p, _ *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			return p, nil
		}, true},
		{"program and victim swapped", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			return v, p
		}, true},
		{"name", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Name = "spy2"
			return p, v
		}, true},
		{"entry", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Entry = 0x1004
			return p, v
		}, true},
		{"measure cache ways", func(p, v *isa.Program, c *model.Config) (*isa.Program, *isa.Program) {
			c.MeasureCache.Ways = 8
			return p, v
		}, true},
		{"attack mark", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Insns[0].Attack = true
			return p, v
		}, false},
		{"labels", func(p, v *isa.Program, _ *model.Config) (*isa.Program, *isa.Program) {
			p.Labels = nil
			return p, v
		}, false},
		{"telemetry", func(p, v *isa.Program, c *model.Config) (*isa.Program, *isa.Program) {
			c.Telemetry = telemetry.NewCollector()
			return p, v
		}, false},
	}
	for _, tc := range cases {
		p, v, c := digestFixture()
		p, v = tc.mutate(p, v, &c)
		if got := ProgramHash(p, v, c) != base; got != tc.changes {
			t.Errorf("%s: digest changed = %v, want %v", tc.name, got, tc.changes)
		}
	}
	// Absence is encoded, so one program cannot pose as the other.
	if ProgramHash(p0, nil, c0) == ProgramHash(nil, p0, c0) {
		t.Error("a program without a victim hashes like a victim without a program")
	}
}

// TestProgramHashCoversModelConfig walks every leaf field of
// model.Config by reflection and checks that changing it changes the
// digest, so a field added to the configuration cannot be forgotten.
// Only the Telemetry collector is exempt.
func TestProgramHashCoversModelConfig(t *testing.T) {
	p, v, c0 := digestFixture()
	c0.Exec.Protected = []exec.AddrRange{{Base: 0x9000, Size: 64}}
	base := ProgramHash(p, v, c0)
	var walk func(path string, f reflect.Value)
	leaves := 0
	walk = func(path string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				walk(path+"."+f.Type().Field(i).Name, f.Field(i))
			}
			return
		case reflect.Slice:
			for i := 0; i < f.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), f.Index(i))
			}
			old := f.Len()
			f.Set(reflect.Append(f, reflect.New(f.Type().Elem()).Elem()))
			defer f.SetLen(old)
		case reflect.Pointer:
			if path == ".Telemetry" {
				return
			}
			t.Fatalf("%s: unexpected pointer field; extend ProgramHash and this test", path)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
			defer f.SetInt(f.Int() - 1)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
			defer f.SetUint(f.Uint() - 1)
		case reflect.Float64:
			old := f.Float()
			f.SetFloat(old + 1)
			defer f.SetFloat(old)
		case reflect.Bool:
			f.SetBool(!f.Bool())
			defer f.SetBool(!f.Bool())
		case reflect.String:
			old := f.String()
			f.SetString(old + "x")
			defer f.SetString(old)
		default:
			t.Fatalf("%s: unhandled kind %s; extend ProgramHash and this test", path, f.Kind())
		}
		leaves++
		if ProgramHash(p, v, c0) == base {
			t.Errorf("changing model.Config%s does not change ProgramHash", path)
		}
	}
	walk("", reflect.ValueOf(&c0).Elem())
	if ProgramHash(p, v, c0) != base {
		t.Fatal("walk did not restore the configuration")
	}
	if leaves < 30 {
		t.Fatalf("walked %d leaves; the walk is not reaching the configuration", leaves)
	}
}
