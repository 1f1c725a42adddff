package scaguard

// End-to-end differential for the repository-index mode over the full
// golden corpus: an index-guided detector — single-engine, across
// remote shard fleets of several sizes, and with the verdict result
// cache layered on —
// must agree with the plain exact detector on the verdict and the best
// match (bit-exact score) for every corpus program, cold and warm. Full
// match lists are not compared: members of skipped clusters
// legitimately report certified upper bounds, exactly like pruned
// entries in a flat early-abandoning scan.

import (
	"testing"

	"repro/internal/telemetry"
)

func TestGoldenVerdictsIndexed(t *testing.T) {
	ref, err := NewDetector()
	if err != nil {
		t.Fatal(err)
	}
	corpus := goldenCorpus(t)

	for _, shards := range []int{1, 2, 7} {
		det, err := NewDetector()
		if err != nil {
			t.Fatal(err)
		}
		det.ResultCache = 128
		det.Scan = ScanConfig{Prune: true, Index: true}
		tel := NewTelemetry()
		det.Telemetry = tel
		// The scans of a remote fleet run in the shard servers, which
		// count their index builds in tel; the client counts one
		// shard_scans per shard per scan.
		scans := telemetry.ScanTargets
		if shards > 1 {
			det.ShardAddrs = shardFleet(t, det.Repo, shards, ShardServerConfig{Telemetry: tel})
			scans = telemetry.ShardScans
		}

		check := func(pass string) {
			for _, tgt := range corpus {
				want, _, err := ref.Classify(tgt.prog, tgt.victim)
				if err != nil {
					t.Fatalf("reference classify %s: %v", tgt.name, err)
				}
				got, _, err := det.Classify(tgt.prog, tgt.victim)
				if err != nil {
					t.Fatalf("shards=%d %s classify %s: %v", shards, pass, tgt.name, err)
				}
				if got.Predicted != want.Predicted {
					t.Fatalf("shards=%d %s %s: predicted %q, exact %q", shards, pass, tgt.name, got.Predicted, want.Predicted)
				}
				if got.Best.Name != want.Best.Name || got.Best.Score != want.Best.Score {
					t.Fatalf("shards=%d %s %s: best (%q, %v), exact (%q, %v)",
						shards, pass, tgt.name, got.Best.Name, got.Best.Score, want.Best.Name, want.Best.Score)
				}
				if got.Best.Pruned {
					t.Fatalf("shards=%d %s %s: best match reported pruned", shards, pass, tgt.name)
				}
			}
		}

		check("cold")
		scansCold := tel.Counter(scans)
		check("warm")
		if n := tel.Counter(scans); n != scansCold {
			t.Errorf("shards=%d: warm pass scanned: %s %d -> %d, want frozen (vcache miss)", shards, scans, scansCold, n)
		}
		if tel.Counter(telemetry.IndexRebuilds) == 0 {
			t.Errorf("shards=%d: no index was ever built", shards)
		}
		if shards == 1 && tel.Counter(telemetry.IndexClustersDescended) == 0 {
			t.Error("indexed scans never descended into a cluster over the golden corpus")
		}
	}
}
