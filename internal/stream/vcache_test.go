package stream

// The streaming pipeline inherits the detector's verdict result cache
// (detect.Detector.ResultCache) for free: every target goes through
// ClassifyCtx, whose scan sits behind the cached scanner. These tests pin
// that down — a stream of repeated targets costs one repository scan,
// and verdicts stay identical to the uncached stream.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestStreamRepeatedTargetsHitVerdictCache: streaming the same program
// N times with the result cache on scans the repository once; every
// result carries the same verdict the uncached detector produces.
func TestStreamRepeatedTargetsHitVerdictCache(t *testing.T) {
	const n = 6
	want := direct(t, attack(t, ""))

	d := newDetector(t)
	d.ResultCache = 8
	in := make(chan Target, n)
	for i := 0; i < n; i++ {
		in <- attack(t, fmt.Sprintf("rep-%d", i))
	}
	close(in)
	results := drain(Classify(context.Background(), d, in, 2))
	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if !reflect.DeepEqual(r.Verdict, want) {
			t.Fatalf("%s: cached stream verdict diverged:\n got %+v\nwant %+v", r.ID, r.Verdict, want)
		}
	}
	tel := d.Telemetry
	if scans := tel.Counter(telemetry.ScanTargets); scans != 1 {
		t.Errorf("scan_targets = %d for %d identical stream targets, want 1", scans, n)
	}
	served := tel.Counter(telemetry.VCacheHits) + tel.Counter(telemetry.VCacheCollapsed)
	if served != n-1 {
		t.Errorf("hits+collapsed = %d, want %d", served, n-1)
	}
}
