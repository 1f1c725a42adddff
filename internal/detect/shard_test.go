package detect

// Tests for the sharded repository scan behind the detector API:
// differential equivalence against the single-engine detector over
// loopback-HTTP remote shards, partial-result degradation when a shard
// dies, and a Classify-vs-Add race over a sharded repository (run under
// `go test -race`, part of `make race`).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// repoTargets returns the repository entries' own models plus a benign
// gated one — real CST-BBS sequences with known classifications.
func repoTargets(r *Repository) []*model.CSTBBS {
	out := make([]*model.CSTBBS, 0, len(r.Entries))
	for _, e := range r.Entries {
		out = append(out, e.BBS)
	}
	return out
}

// classifyEach classifies targets one by one through the non-ctx API.
func classifyEach(d *Detector, targets []*model.CSTBBS) []Result {
	out := make([]Result, len(targets))
	for i, bbs := range targets {
		out[i] = d.ClassifyBBS(bbs)
	}
	return out
}

// shardServers launches loopback HTTP servers over the router's slices
// of the repository, as `scaguard shard-serve` would. A server's name
// in fault injection is its address.
func shardServers(t *testing.T, r *Repository, n int, cfg shard.ServerConfig) []string {
	t.Helper()
	models := repoTargets(r)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(shard.NewServer(shard.ShardModels(models, shard.Router{Shards: n}, i), cfg).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// growingShardServers is shardServers over a repository that grows
// while the test runs: each request is served over the router's slice
// of the repository as it stands, so a coordinator built after an Add
// finds its partition, and one built before it degrades to a partial
// scan.
func growingShardServers(t *testing.T, r *Repository, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		var (
			mu  sync.Mutex
			ver uint64
			h   http.Handler
		)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			mu.Lock()
			if v, _ := r.stamp(); h == nil || v != ver {
				ver = v
				h = shard.NewServer(shard.ShardModels(repoTargets(r), shard.Router{Shards: n}, i), shard.ServerConfig{}).Handler()
			}
			cur := h
			mu.Unlock()
			cur.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestShardedDetectorMatchesSingleEngine: the whole Result — predicted
// family, best match, every score in every position — is identical
// (reflect.DeepEqual, exact floats) between the single-engine detector
// and remote sharded ones across shard counts.
func TestShardedDetectorMatchesSingleEngine(t *testing.T) {
	r := repo(t)
	ref := NewDetector(r)
	targets := repoTargets(r)
	want := classifyEach(ref, targets)

	for _, n := range []int{1, 2, 7} {
		remote := NewDetector(r)
		remote.ShardAddrs = shardServers(t, r, n, shard.ServerConfig{})
		for ti, bbs := range targets {
			got, err := remote.ClassifyBBSCtx(context.Background(), bbs)
			if err != nil {
				t.Fatalf("remote shards=%d target %d: %v", n, ti, err)
			}
			if !reflect.DeepEqual(got, want[ti]) {
				t.Fatalf("remote shards=%d target %d: %+v, want %+v", n, ti, got, want[ti])
			}
		}
	}
}

// TestShardedDetectorPrunedBestStable: pruning across shards keeps the
// classification (family and best match) identical to the exact
// single-engine detector.
func TestShardedDetectorPrunedBestStable(t *testing.T) {
	r := repo(t)
	ref := NewDetector(r)
	targets := repoTargets(r)
	d := NewDetector(r)
	d.ShardAddrs = shardServers(t, r, 3, shard.ServerConfig{})
	d.Scan.Prune = true
	for ti, bbs := range targets {
		want := ref.ClassifyBBS(bbs)
		got := d.ClassifyBBS(bbs)
		if got.Predicted != want.Predicted || got.Best.Name != want.Best.Name || got.Best.Score != want.Best.Score {
			t.Fatalf("target %d: pruned sharded best %+v, want %+v", ti, got.Best, want.Best)
		}
	}
}

// TestShardedDetectorPartialDegradation: with one shard down, the ctx
// API returns a usable partial Result alongside the *shard.PartialError
// and the non-ctx API degrades silently — classification keeps
// answering instead of failing outright.
func TestShardedDetectorPartialDegradation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	r := repo(t)
	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.ShardAddrs = shardServers(t, r, 2, shard.ServerConfig{})
	d.Telemetry = tel
	target := r.Entries[0].BBS

	full := d.ClassifyBBS(target) // warm build, no fault yet
	faultinject.Enable(faultinject.ShardScan, faultinject.Match(d.ShardAddrs[1], faultinject.Error(errors.New("shard down"))))

	res, err := d.ClassifyBBSCtx(context.Background(), target)
	var pe *shard.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *shard.PartialError", err)
	}
	if len(res.Matches) == 0 || len(res.Matches) >= len(full.Matches) {
		t.Fatalf("partial result has %d matches (full scan has %d)", len(res.Matches), len(full.Matches))
	}
	for _, m := range res.Matches {
		if m.Name == "" {
			t.Fatal("partial match lost its entry name")
		}
	}

	silent := d.ClassifyBBS(target)
	if len(silent.Matches) != len(res.Matches) {
		t.Fatalf("non-ctx API returned %d matches, ctx API %d", len(silent.Matches), len(res.Matches))
	}
	if tel.Counter(telemetry.ShardDegradedScans) == 0 {
		t.Error("degraded scans not counted")
	}

	// Every target still resolves, each with its own partial error.
	for i, bbs := range repoTargets(r) {
		res, err := d.ClassifyBBSCtx(context.Background(), bbs)
		if !errors.As(err, &pe) {
			t.Fatalf("target %d: err = %v, want *shard.PartialError", i, err)
		}
		if res.Predicted == "" {
			t.Errorf("target %d has empty prediction", i)
		}
	}
}

// TestShardedClassifyVsAddRace: concurrent classification passes over
// every target and single ClassifyBBS calls against a sharded
// repository that grows through Add — the coordinator rebuild path
// under contention. Meaningful under -race.
func TestShardedClassifyVsAddRace(t *testing.T) {
	p := attacks.DefaultParams()
	pocs := []attacks.PoC{
		attacks.FlushReloadIAIK(p),
		attacks.PrimeProbeIAIK(p),
	}
	r, err := BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(r)
	d.ShardAddrs = growingShardServers(t, r, 3)
	d.Telemetry = telemetry.NewCollector()
	targets := repoTargets(r)
	extra := r.Entries[0].BBS

	const (
		classifiers = 4
		rounds      = 15
		adds        = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < classifiers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if g%2 == 0 {
					for _, res := range classifyEach(d, targets) {
						if res.Predicted == "" {
							t.Error("empty prediction")
							return
						}
					}
				} else if res := d.ClassifyBBS(targets[i%len(targets)]); res.Predicted == "" {
					t.Error("empty prediction")
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			r.Add(fmt.Sprintf("sharded-extra-%d", i), attacks.FamilyFR, extra)
		}
	}()
	wg.Wait()
	if r.Len() != len(pocs)+adds {
		t.Errorf("repository length = %d", r.Len())
	}
	if d.Telemetry.Counter(telemetry.ShardScans) == 0 {
		t.Error("no sharded scans recorded")
	}
}
