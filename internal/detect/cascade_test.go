package detect

// Detector-level tests for the pruned scan path, which runs the
// lower-bound cascade: the verdict and best match must match the exact
// single-engine detector, in process and across remote shard counts,
// and the cascade must survive a Classify-vs-Add race (run under
// `go test -race`, part of `make race`).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// TestCascadeDetectorBestMatchesExact: for every repository target, a
// pruning (-fast) detector — single-engine and remote-sharded — must agree
// with the exact reference on the predicted family, the best match
// name and the bit-exact best score. Full match lists are not compared
// (pruned entries legitimately carry upper bounds).
func TestCascadeDetectorBestMatchesExact(t *testing.T) {
	r := repo(t)
	ref := NewDetector(r)
	targets := repoTargets(r)
	want := classifyEach(ref, targets)

	for _, n := range []int{1, 2, 7} {
		d := NewDetector(r)
		if n > 1 {
			d.ShardAddrs = shardServers(t, r, n, shard.ServerConfig{})
		}
		d.Scan = scan.Config{Prune: true}
		got := classifyEach(d, targets)
		for i := range want {
			if got[i].Predicted != want[i].Predicted {
				t.Errorf("shards=%d target %d: predicted %q, exact %q", n, i, got[i].Predicted, want[i].Predicted)
			}
			if got[i].Best.Name != want[i].Best.Name {
				t.Errorf("shards=%d target %d: best %q, exact %q", n, i, got[i].Best.Name, want[i].Best.Name)
			}
			if got[i].Best.Score != want[i].Best.Score {
				t.Errorf("shards=%d target %d: best score %v, exact %v", n, i, got[i].Best.Score, want[i].Best.Score)
			}
			if got[i].Best.Pruned {
				t.Errorf("shards=%d target %d: best match reported pruned", n, i)
			}
		}
	}
}

// TestCascadeClassifyVsAddRace: concurrent cascade classification and
// repository growth — engine rebuilds must never race the flattened
// model state or the per-worker scratches. Meaningful under -race.
func TestCascadeClassifyVsAddRace(t *testing.T) {
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
	d.ShardAddrs = growingShardServers(t, r, 2)
	d.Scan = scan.Config{Prune: true}
	d.Telemetry = telemetry.NewCollector()
	targets := repoTargets(r)
	extra := r.Entries[0].BBS

	const (
		classifiers = 4
		rounds      = 12
		adds        = 6
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
			r.Add(fmt.Sprintf("cascade-extra-%d", i), attacks.FamilyFR, extra)
		}
	}()
	wg.Wait()
	if r.Len() != len(pocs)+adds {
		t.Errorf("repository length = %d", r.Len())
	}
}
