package scaguard

// End-to-end differential for the verdict result cache over the full
// golden corpus: a detector over a 3-shard remote fleet with the
// result cache on must
// produce verdicts identical to the plain single-engine detector for
// every corpus program, and a repeat pass over the corpus must be
// served entirely from memory by program keys — no model built, no
// repository scan, and results and models equal to the cold pass.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

func TestGoldenVerdictsShardedCached(t *testing.T) {
	ref, err := NewDetector()
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector()
	if err != nil {
		t.Fatal(err)
	}
	det.ShardAddrs = shardFleet(t, det.Repo, 3, ShardServerConfig{})
	det.ResultCache = 128
	tel := NewTelemetry()
	det.Telemetry = tel

	corpus := goldenCorpus(t)
	ctx := context.Background()
	cold := make([]Result, len(corpus))
	coldBBS := make([]*CSTBBS, len(corpus))
	for i, tgt := range corpus {
		want, _, err := ref.Classify(tgt.prog, tgt.victim)
		if err != nil {
			t.Fatalf("reference classify %s: %v", tgt.name, err)
		}
		got, m, err := det.ClassifyCtx(ctx, tgt.prog, tgt.victim)
		if err != nil {
			t.Fatalf("cached classify %s: %v", tgt.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sharded+cached verdict diverged:\n got %+v\nwant %+v", tgt.name, got, want)
		}
		cold[i], coldBBS[i] = got, m.BBS
	}

	scansCold := tel.Counter(telemetry.ShardScans)
	buildsCold := tel.Counter(telemetry.ModelBuilds)
	hitsCold := tel.Counter(telemetry.VCacheProgramHits)
	for i, tgt := range corpus {
		got, m, err := det.ClassifyCtx(ctx, tgt.prog, tgt.victim)
		if err != nil {
			t.Fatalf("warm classify %s: %v", tgt.name, err)
		}
		if !reflect.DeepEqual(got, cold[i]) {
			t.Fatalf("%s: warm cached verdict diverged:\n got %+v\nwant %+v", tgt.name, got, cold[i])
		}
		if !reflect.DeepEqual(m.BBS, coldBBS[i]) {
			t.Fatalf("%s: warm cached model diverged", tgt.name)
		}
	}
	if scans := tel.Counter(telemetry.ShardScans); scans != scansCold {
		t.Errorf("repeat pass scanned: shard_scans %d -> %d, want frozen", scansCold, scans)
	}
	if builds := tel.Counter(telemetry.ModelBuilds); builds != buildsCold {
		t.Errorf("repeat pass modeled: model_builds %d -> %d, want frozen", buildsCold, builds)
	}
	if gotHits := tel.Counter(telemetry.VCacheProgramHits) - hitsCold; gotHits != uint64(len(corpus)) {
		t.Errorf("repeat pass program hits = %d, want %d (one per target, gated ones included)", gotHits, len(corpus))
	}
}
