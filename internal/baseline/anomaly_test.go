package baseline

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
)

func TestAnomalyTrainErrors(t *testing.T) {
	if _, err := TrainAnomaly(nil, 3); err == nil {
		t.Error("empty training must fail")
	}
	if _, err := TrainAnomaly([][]float64{{1}, {1, 2}}, 3); err == nil {
		t.Error("inconsistent dims must fail")
	}
}

func TestAnomalyOnSyntheticData(t *testing.T) {
	var train [][]float64
	for i := 0; i < 30; i++ {
		train = append(train, []float64{10 + float64(i%3), 5})
	}
	d, err := TrainAnomaly(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Predict([]float64{11, 5}); got != d.BenignLabel {
		t.Errorf("in-distribution = %q", got)
	}
	if got := d.Predict([]float64{500, 5}); got != d.AttackLabel {
		t.Errorf("far-out sample = %q", got)
	}
	if d.Score([]float64{11, 5}) >= d.Score([]float64{100, 5}) {
		t.Error("score must grow with distance")
	}
}

// The related-work behavior on real traces: trained on benign windows
// only, the detector flags cache attacks (their flush/miss rates are
// far outside the benign distribution) but cannot name a family, and a
// legitimately unusual benign program can trip it.
func TestAnomalyOnRealTraces(t *testing.T) {
	var benignFeats [][]float64
	for seed := int64(1); seed <= 10; seed++ {
		for _, tmpl := range []string{"bubble-sort", "stream", "kadane", "hmac-loop"} {
			kind := benign.KindLeetcode
			switch tmpl {
			case "stream":
				kind = benign.KindSpec
			case "hmac-loop":
				kind, tmpl = benign.KindServer, "openssl-hmac"
			}
			p := benign.MustGenerate(benign.Spec{Kind: kind, Template: tmpl, Seed: seed})
			r, err := collect(p, nil, 300_000)
			if err != nil {
				t.Fatal(err)
			}
			benignFeats = append(benignFeats, r.windowFeatures())
		}
	}
	d, err := TrainAnomaly(benignFeats, DefaultAnomalyK)
	if err != nil {
		t.Fatal(err)
	}

	// Attacks must be flagged.
	detected := 0
	pocs := attacks.All(attacks.DefaultParams())
	for _, poc := range pocs {
		r, err := collect(poc.Program, poc.Victim, 300_000)
		if err != nil {
			t.Fatal(err)
		}
		if d.Predict(r.windowFeatures()) == d.AttackLabel {
			detected++
		}
	}
	if detected < len(pocs)*2/3 {
		t.Errorf("anomaly detector flagged only %d/%d attacks", detected, len(pocs))
	}

	// Held-out benign of the same kinds mostly passes.
	pass := 0
	total := 0
	for seed := int64(50); seed < 56; seed++ {
		p := benign.MustGenerate(benign.Spec{Kind: benign.KindLeetcode, Template: "bubble-sort", Seed: seed})
		r, err := collect(p, nil, 300_000)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if d.Predict(r.windowFeatures()) == d.BenignLabel {
			pass++
		}
	}
	if pass < total/2 {
		t.Errorf("anomaly detector rejected %d/%d held-out benign", total-pass, total)
	}

	// And the verdict carries no family: it is a fixed label.
	if d.AttackLabel == string(attacks.FamilyFR) || d.AttackLabel == string(attacks.FamilyPP) {
		t.Error("anomaly verdicts must not name families")
	}
}
