package detect

// Race test for the telemetry-instrumented classification path: several
// goroutines classify batches of targets, one ClassifyBBS call each,
// while others mutate the repository with Add, all with a live collector attached. Run under
// `go test -race ./internal/detect` (part of `make race`); the
// assertions additionally pin the snapshot consistency guarantees the
// telemetry package promises — counters never move backwards between
// snapshots, and the outcome counters land on the exact totals.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/model"
	"repro/internal/telemetry"
)

func TestTelemetryRaceClassifyBatchVsAdd(t *testing.T) {
	p := attacks.DefaultParams()
	pocs := []attacks.PoC{
		attacks.FlushReloadIAIK(p),
		attacks.PrimeProbeIAIK(p),
	}
	r, err := BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.NewCollector()
	d := NewDetector(r)
	d.Telemetry = tel

	// Targets: the repository entries' own models, so every batch scores
	// real CST-BBS sequences against a repository that grows underneath.
	targets := make([]*model.CSTBBS, 0, len(r.Entries))
	for _, e := range r.Entries {
		targets = append(targets, e.BBS)
	}
	extra := r.Entries[0].BBS // model to Add under fresh names

	const (
		classifiers = 4
		batches     = 25
		adders      = 2
		adds        = 10
	)
	var wg sync.WaitGroup
	for g := 0; g < classifiers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				for _, res := range classifyEach(d, targets) {
					if res.Predicted == "" {
						t.Error("empty predicted family")
						return
					}
				}
			}
		}()
	}
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				r.Add(fmt.Sprintf("race-extra-%d-%d", g, i), attacks.FamilyFR, extra)
				tel.Snapshot() // snapshot concurrently with writers
			}
		}(g)
	}

	// Snapshot continuously while the work runs; every counter must be
	// monotone non-decreasing between successive snapshots.
	stop := make(chan struct{})
	snapDone := make(chan error, 1)
	go func() {
		last := map[string]uint64{}
		for {
			select {
			case <-stop:
				snapDone <- nil
				return
			default:
			}
			snap := tel.Snapshot()
			for name, v := range snap.Counters {
				if v < last[name] {
					snapDone <- fmt.Errorf("counter %s went backwards: %d -> %d", name, last[name], v)
					return
				}
				last[name] = v
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}

	snap := tel.Snapshot()
	wantClassifications := uint64(classifiers * batches * len(targets))
	if got := snap.Counters["detect_classifications"]; got != wantClassifications {
		t.Errorf("detect_classifications = %d, want %d", got, wantClassifications)
	}
	rebuilds, reuses := snap.Counters["detect_engine_rebuilds"], snap.Counters["detect_engine_reuses"]
	if rebuilds == 0 {
		t.Error("no engine rebuilds recorded despite concurrent Adds")
	}
	if rebuilds+reuses != wantClassifications {
		t.Errorf("rebuilds(%d)+reuses(%d) != classifications(%d)", rebuilds, reuses, wantClassifications)
	}
	// Scan outcome counters partition the comparisons performed: with no
	// separate total, their sum IS the total, so any snapshot is
	// structurally consistent. Here just pin that work happened and that
	// gating stayed within bounds.
	sum := snap.Counters["scan_entries_exact"] +
		snap.Counters["scan_entries_lb_skipped"] +
		snap.Counters["scan_entries_abandoned"]
	if sum == 0 {
		t.Error("no scan entry outcomes recorded")
	}
	if gated := snap.Counters["detect_gated"]; gated > snap.Counters["detect_classifications"] {
		t.Errorf("detect_gated %d exceeds classifications %d", gated, snap.Counters["detect_classifications"])
	}
	if r.Len() != len(pocs)+adders*adds {
		t.Errorf("repository length = %d, want %d", r.Len(), len(pocs)+adders*adds)
	}
}
