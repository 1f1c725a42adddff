package scaguard

// The golden baselines test pins what the Table VI baselines read from
// a run, per target of the golden trace corpus: SCADET's verdict on the
// cache-set trace and the exact bits of the NIGHTs-WATCH window
// features and the KNN-MLFM loop features.
//
// Regenerate after an intentional change with:
//
//	go test -run Golden -update .

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/baseline"
)

const goldenBaselinesPath = "testdata/golden_baselines.json"

// goldenBaseline is one target's baseline outputs; the feature vectors
// are stored as math.Float64bits so the comparison is bit-exact.
type goldenBaseline struct {
	Target string   `json:"target"`
	SCADET string   `json:"scadet"`
	Window []uint64 `json:"window_features"`
	Loop   []uint64 `json:"loop_features"`
}

func float64Bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func TestGoldenBaselines(t *testing.T) {
	scadet := baseline.NewSCADET()
	var got []goldenBaseline
	for _, tgt := range traceCorpus(t) {
		tr := runTrace(t, tgt, true)
		rec := replayBaselines(t, tgt, tr)
		got = append(got, goldenBaseline{
			Target: tgt.name,
			SCADET: scadet.Detect(rec.SetTrace, tgt.prog),
			Window: float64Bits(baseline.WindowFeatures(rec.Windows, tr.Cycles)),
			Loop:   float64Bits(baseline.LoopFeatures(tr)),
		})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBaselinesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d baseline fingerprints to %s", len(got), goldenBaselinesPath)
		return
	}
	data, err := os.ReadFile(goldenBaselinesPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with `go test -run Golden -update .`): %v", err)
	}
	var want []goldenBaseline
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus size changed: got %d targets, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: baseline outputs differ:\n got %+v\nwant %+v", got[i].Target, got[i], want[i])
		}
	}
}
