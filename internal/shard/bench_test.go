package shard

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
)

// corpusSized builds n models of exactly `blocks` CSTs each — long
// enough that DTW work dominates the scatter–gather overhead
// (goroutines, HTTP, JSON, merge), the regime sharding exists for.
func corpusSized(rng *rand.Rand, n, blocks int) []*model.CSTBBS {
	out := corpus(rng, n)
	for _, m := range out {
		for m.Len() < blocks {
			m.Seq = append(m.Seq, m.Seq[rng.Intn(m.Len())])
		}
		m.Seq = m.Seq[:blocks]
	}
	return out
}

// BenchmarkShardedScan scans one repository and target set, exact and
// pruned, three ways: one scan.Engine on one worker (workers=1), one
// engine on GOMAXPROCS workers (engine), and a coordinator over two
// loopback shard servers (remote=2), each server an engine on
// GOMAXPROCS workers over its half, with the shared cutoff broadcast
// over HTTP. remote=2 is end to end: JSON, loopback HTTP and the
// servers' scans together. Numbers are recorded in docs/PERFORMANCE.md
// (make bench-shard).
func BenchmarkShardedScan(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	models := corpusSized(rng, 96, 24)
	targets := corpusSized(rng, 8, 24)
	for _, mode := range []string{"exact", "prune"} {
		scfg := scan.Config{Prune: mode == "prune", Sim: similarity.DefaultOptions()}
		for _, workers := range []int{1, 0} {
			name := mode + "/engine"
			if workers == 1 {
				name = mode + "/workers=1"
			}
			b.Run(name, func(b *testing.B) {
				cfg := scfg
				cfg.Workers = workers
				eng := scan.New(models, cfg)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Scan(targets[i%len(targets)])
				}
			})
		}
		b.Run(mode+"/remote=2", func(b *testing.B) {
			r := Router{Shards: 2}
			co, err := NewRemoteCoordinator(models, startServers(b, models, r, ServerConfig{}), scfg.Semantics(), RemoteConfig{}, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer co.Close()
			for _, t := range targets { // warm: server engines, connections
				if _, err := co.ScanCtx(context.Background(), t); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := co.ScanCtx(context.Background(), targets[i%len(targets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
