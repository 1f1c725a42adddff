package detect

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// bigRepo grows the shared repository's four models to n entries under
// distinct names, the size of the 500-variant corpus without modeling
// 500 programs.
func bigRepo(t *testing.T, n int) *Repository {
	t.Helper()
	src := repo(t)
	r := &Repository{}
	for i := 0; i < n; i++ {
		e := src.Entries[i%len(src.Entries)]
		r.Add(fmt.Sprintf("%s-%03d", e.Name, i), e.Family, e.BBS)
	}
	return r
}

// TestEngineReuseCopiesNothing: a warm detector checks the repository's
// version and length and reuses its engine without copying the entries,
// so the check allocates nothing however large the repository is.
func TestEngineReuseCopiesNothing(t *testing.T) {
	d := NewDetector(bigRepo(t, 500))
	if _, _, err := d.engine(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := d.engine(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm engine() allocates %.1f times, want 0", allocs)
	}
}

// TestEngineRebuildsOnDirectAppend: appending to Repository.Entries
// directly bypasses the version, but the length check still rebuilds
// the engine, and the next scan covers the appended entry.
func TestEngineRebuildsOnDirectAppend(t *testing.T) {
	r := freshRepo(t)
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.Telemetry = tel
	target := r.Entries[0].BBS
	before := d.ClassifyBBS(target)
	d.ClassifyBBS(target)
	if got := tel.Counter(telemetry.DetectEngineRebuilds); got != 1 {
		t.Fatalf("engine_rebuilds = %d after two calls, want 1", got)
	}
	r.Entries = append(r.Entries, Entry{Name: "appended", Family: r.Entries[1].Family, BBS: r.Entries[1].BBS})
	after := d.ClassifyBBS(target)
	if got := tel.Counter(telemetry.DetectEngineRebuilds); got != 2 {
		t.Fatalf("engine_rebuilds = %d after a direct append, want 2", got)
	}
	if len(after.Matches) != len(before.Matches)+1 {
		t.Fatalf("post-append verdict has %d matches, want %d", len(after.Matches), len(before.Matches)+1)
	}
}

// TestClassifyBBSCtxAllocs pins the allocations of one warm exact
// ClassifyBBSCtx call over a 500-entry repository: the scan's own
// budget plus the assembled Result and its sort order. Copying the
// repository snapshot on every call would add one allocation of every
// entry (20 KB here).
func TestClassifyBBSCtxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under -race")
	}
	r := bigRepo(t, 500)
	d := NewDetector(r)
	d.Scan.Workers = 1
	target := r.Entries[0].BBS
	classify := func() {
		if _, err := d.ClassifyBBSCtx(context.Background(), target); err != nil {
			t.Fatal(err)
		}
	}
	classify() // warm: build the engine, intern the target, fill the memo
	allocs := testing.AllocsPerRun(20, classify)
	t.Logf("%.1f allocs per warm ClassifyBBSCtx", allocs)
	const budget = 14
	if allocs > budget {
		t.Errorf("warm ClassifyBBSCtx allocates %.1f times, budget %d", allocs, budget)
	}
}
