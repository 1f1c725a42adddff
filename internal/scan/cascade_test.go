package scan

// Differential, tie-break, telemetry and allocation tests for the
// pruned scan path (Config.Prune), which runs the lower-bound cascade:
// the lazy lower-bound escalation must keep the best match exact and
// every pruned score a true upper bound, while the warm comparison path
// runs allocation-free.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/similarity"
	"repro/internal/telemetry"
)

func bestMatch(ms []Match) (int, float64) {
	bi, bs := -1, math.Inf(-1)
	for i, m := range ms {
		if m.Score > bs {
			bi, bs = i, m.Score
		}
	}
	return bi, bs
}

// The cascade scan obeys the pruned-scan contract: exact best (lowest
// index on ties), bit-identical best score, and every pruned score a
// true upper bound — against the serial reference, over randomized
// corpora and worker counts.
func TestCascadeScanKeepsBestExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randomCorpus(rng, 2+rng.Intn(12), 8)
		eng := New(entries, Config{Workers: 1 + rng.Intn(4), Prune: true, Sim: similarity.DefaultOptions()})
		for trial := 0; trial < 4; trial++ {
			target := randomBBS(rng, 8)
			got := eng.Scan(target)
			want := eng.ScanSerial(target)
			wi, ws := bestMatch(want)
			gi, gs := bestMatch(got)
			if got[wi].Pruned {
				t.Logf("seed=%d: true best entry %d was pruned", seed, wi)
				return false
			}
			if gi != wi || gs != ws {
				t.Logf("seed=%d: cascade best (%d,%v) != serial best (%d,%v)", seed, gi, gs, wi, ws)
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

// A pruned scan splits its entries into one strided slice per worker,
// so the worker count changes which entries each worker bounds and in
// what order they are scored. The best match must not change with it:
// at 1, 2, 3 and 7 workers it is bit-equal to the serial exact scan's
// and never pruned.
func TestPrunedBestAcrossWorkerCounts(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := randomCorpus(rng, 40, 8)
		targets := randomCorpus(rng, 4, 8)
		for _, workers := range []int{1, 2, 3, 7} {
			eng := New(entries, Config{Workers: workers, Prune: true, Sim: similarity.DefaultOptions()})
			for ti, target := range targets {
				got := eng.Scan(target)
				wi, ws := bestMatch(eng.ScanSerial(target))
				if gi, gs := bestMatch(got); gi != wi || gs != ws || got[gi].Pruned {
					t.Fatalf("seed=%d workers=%d target %d: pruned best (%d, %v, pruned=%v), exact (%d, %v)",
						seed, workers, ti, gi, gs, got[gi].Pruned, wi, ws)
				}
			}
		}
	}
}

// Candidate reordering must not disturb tie-breaking: with duplicate
// repository entries tying for best, every tied copy is scored exactly
// (the pruneCutoff margin forbids pruning a tie), scores are identical,
// and the positional result keeps the first index as max-score winner.
func TestCascadeTieBreakOnDuplicateBest(t *testing.T) {
	dup := randomBBS(rand.New(rand.NewSource(3)), 6)
	for dup.Len() == 0 {
		dup = randomBBS(rand.New(rand.NewSource(4)), 6)
	}
	rng := rand.New(rand.NewSource(5))
	// entries: decoys around two identical copies of the target model.
	corpus := append(randomCorpus(rng, 3, 8), dup, randomBBS(rng, 8), dup, randomBBS(rng, 8))
	for _, workers := range []int{1, 4} {
		eng := New(corpus, Config{Workers: workers, Prune: true, Sim: similarity.DefaultOptions()})
		for trial := 0; trial < 6; trial++ {
			ms := eng.Scan(dup)
			if ms[3].Pruned || ms[5].Pruned {
				t.Fatalf("workers=%d trial=%d: a tied-best duplicate was pruned: %+v / %+v", workers, trial, ms[3], ms[5])
			}
			if ms[3].Score != 1 || ms[5].Score != 1 {
				t.Fatalf("workers=%d trial=%d: self-match scores (%v, %v), want (1, 1)", workers, trial, ms[3].Score, ms[5].Score)
			}
			if bi, _ := bestMatch(ms); bi != 3 {
				t.Fatalf("workers=%d trial=%d: max-score index %d, want first duplicate 3", workers, trial, bi)
			}
		}
	}
}

// Per-tier prune counters must account for every entry exactly once:
// kim-skipped + keogh-skipped + lowerbound-skipped + abandoned + exact
// = entries × scans, and the cheap tiers actually fire on a corpus with
// obvious outliers.
func TestCascadeTelemetryCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := randomCorpus(rng, 16, 8)
	for i, e := range entries {
		if e.Len() == 0 {
			entries[i] = randomBBS(rand.New(rand.NewSource(int64(100+i))), 7)
		}
	}
	tel := telemetry.NewCollector()
	eng := New(entries, Config{Prune: true, Telemetry: tel, Sim: similarity.DefaultOptions()})
	const scans = 5
	for trial := 0; trial < scans; trial++ {
		eng.Scan(randomBBS(rng, 8))
	}
	sum := tel.Counter(telemetry.ScanEntriesKimSkipped) +
		tel.Counter(telemetry.ScanEntriesKeoghSkipped) +
		tel.Counter(telemetry.ScanEntriesLowerBoundSkipped) +
		tel.Counter(telemetry.ScanEntriesAbandoned) +
		tel.Counter(telemetry.ScanEntriesExact)
	if want := uint64(len(entries) * scans); sum != want {
		t.Errorf("tier counters sum to %d, want %d (kim=%d keogh=%d lb=%d abandoned=%d exact=%d)",
			sum, want,
			tel.Counter(telemetry.ScanEntriesKimSkipped),
			tel.Counter(telemetry.ScanEntriesKeoghSkipped),
			tel.Counter(telemetry.ScanEntriesLowerBoundSkipped),
			tel.Counter(telemetry.ScanEntriesAbandoned),
			tel.Counter(telemetry.ScanEntriesExact))
	}
	if tel.Counter(telemetry.ScanEntriesExact) == 0 {
		t.Error("no entry was scored exactly — the best must always be")
	}
}

// The warm comparison path allocates nothing: once the engine, target,
// scratch, memo cache and cutoff are warm, scoring every entry again
// performs zero allocations per scan — exact mode and the pruned
// cascade alike. This pins the flattened-kernel design (scratch
// DTW/Levenshtein rows, prebuilt dist closure, map-read-only memo).
func TestScanZeroAllocWarmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entries := randomCorpus(rng, 24, 8)
	target := randomBBS(rng, 8)
	for target.Len() == 0 {
		target = randomBBS(rng, 8)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Exact", Config{Sim: similarity.DefaultOptions()}},
		{"Fast", Config{Prune: true, Sim: similarity.DefaultOptions()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New(entries, c.cfg)
			tgt := eng.newTarget(target)
			cut := NewCutoff()
			s := eng.newScratch()
			eng.boundSlice(&tgt, 0, 1, s) // one worker: slice position = entry index
			// Warm pass: fills the Levenshtein memo for every cell the
			// measured pass can visit (a tighter cutoff only shrinks the
			// visited set), grows every scratch buffer, settles the cutoff.
			for ei := range entries {
				eng.scoreOne(&tgt, ei, s.lbs[ei], s.kims[ei], cut, s)
			}
			allocs := testing.AllocsPerRun(20, func() {
				for ei := range entries {
					eng.scoreOne(&tgt, ei, s.lbs[ei], s.kims[ei], cut, s)
				}
			})
			if allocs != 0 {
				t.Errorf("warm scan path allocates %.1f times per full repository pass, want 0", allocs)
			}
		})
	}
}

// TestDistCacheInternHitAllocs: interning a block the cache already
// holds allocates nothing when the caller reuses its key buffer, as
// Engine.internBlocks does — the lookup by string(key) does not copy.
func TestDistCacheInternHitAllocs(t *testing.T) {
	c := NewDistCache()
	seq := []string{"mov reg, mem", "clflush mem", "rdtscp", "add reg, imm"}
	key := appendBlockKey(nil, seq)
	id := c.intern(key)
	allocs := testing.AllocsPerRun(100, func() {
		key = appendBlockKey(key[:0], seq)
		if c.intern(key) != id {
			t.Fatal("re-interned block got a new id")
		}
	})
	if allocs != 0 {
		t.Errorf("intern hit allocates %.1f times, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestScanCtxAllocs pins the allocations of one whole warm ScanCtx call
// — target preparation, bounds and order, the worker pool — exact,
// pruned and indexed, with the caller as the only worker and with one
// helper goroutine. The per-comparison path is pinned at zero above;
// this budget is what remains per target.
func TestScanCtxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under -race")
	}
	rng := rand.New(rand.NewSource(2))
	entries := randomCorpus(rng, 24, 8)
	target := randomBBS(rng, 8)
	for target.Len() == 0 {
		target = randomBBS(rng, 8)
	}
	cases := []struct {
		name   string
		cfg    Config
		budget [2]float64 // at 1 and 2 workers
	}{
		{"Exact", Config{}, [2]float64{11, 12}},
		{"Fast", Config{Prune: true}, [2]float64{13, 15}},
		{"Indexed", Config{Prune: true, Index: true}, [2]float64{23, 23}},
	}
	for _, c := range cases {
		for w, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := c.cfg
				cfg.Workers = workers
				cfg.Sim = similarity.DefaultOptions()
				eng := New(entries, cfg)
				scan := func() {
					if _, err := eng.ScanCtx(context.Background(), target); err != nil {
						t.Fatal(err)
					}
				}
				scan() // warm: intern the target's blocks, fill the pair memos
				allocs := testing.AllocsPerRun(50, scan)
				t.Logf("%.1f allocs per warm ScanCtx", allocs)
				if allocs > c.budget[w] {
					t.Errorf("warm ScanCtx allocates %.1f times, budget %.0f", allocs, c.budget[w])
				}
			})
		}
	}
}
