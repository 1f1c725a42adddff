package detect

import (
	"math"
	"testing"

	"repro/internal/attacks"
	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/scan"
	"repro/internal/vcache"
)

// FuzzPipeline fuzzes the front of the pipeline — mutation, simulation,
// CFG recovery and modeling — and the detector behind it. An input is a
// PoC index (over the canonical PoCs and the extensions), a mutation
// seed and an obfuscation bit; mutate.Mutate turns them into a valid
// program, run with the PoC's victim. For every input:
//   - nothing panics;
//   - two model.Build runs give models with equal vcache.TargetHash;
//   - the exact detector's verdict equals the oracle's: the serial
//     exact scan (scan.Engine.ScanSerial), gated and thresholded as the
//     detector does, with the best score equal to the bit;
//   - the -fast (pruned) detector's verdict and best match equal the
//     exact detector's.
func FuzzPipeline(f *testing.F) {
	p := attacks.DefaultParams()
	var pocs []attacks.PoC
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			f.Fatal(err)
		}
		pocs = append(pocs, poc)
	}
	for i := range pocs {
		f.Add(uint8(i), int64(i+1), i%3 == 0)
	}
	r, err := BuildRepository(attacks.All(p), model.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	exact := NewDetector(r)
	fast := NewDetector(r)
	fast.Scan.Prune = true
	models := make([]*model.CSTBBS, len(r.Entries))
	for i, e := range r.Entries {
		models[i] = e.BBS
	}
	oracle := scan.New(models, scan.Config{Sim: exact.SimOpts})

	f.Fuzz(func(t *testing.T, pocIdx uint8, seed int64, obfuscate bool) {
		poc := pocs[int(pocIdx)%len(pocs)]
		mcfg := mutate.LightConfig(seed)
		if obfuscate {
			mcfg = mutate.ObfuscationConfig(seed)
		}
		prog, err := mutate.Mutate(poc.Program, mcfg)
		if err != nil {
			t.Skipf("mutate %s/%d: %v", poc.Name, seed, err)
		}
		m1, err := model.Build(prog, poc.Victim, model.DefaultConfig())
		if err != nil {
			t.Fatalf("model %s/%d: %v", poc.Name, seed, err)
		}
		m2, err := model.Build(prog, poc.Victim, model.DefaultConfig())
		if err != nil {
			t.Fatalf("second model %s/%d: %v", poc.Name, seed, err)
		}
		if vcache.TargetHash(m1.BBS) != vcache.TargetHash(m2.BBS) {
			t.Fatalf("%s/%d: two builds of one program gave different models", poc.Name, seed)
		}

		got := exact.ClassifyBBS(m1.BBS)
		want := Result{Predicted: attacks.FamilyBenign}
		if exact.GateReason(m1.BBS) == "" {
			ms := oracle.ScanSerial(m1.BBS)
			best := 0
			for i := range ms {
				if ms[i].Score > ms[best].Score {
					best = i
				}
			}
			e := r.Entries[best]
			want.Best = Match{Name: e.Name, Family: e.Family, Score: ms[best].Score}
			if want.Best.Score >= exact.Threshold {
				want.Predicted = e.Family
			}
		}
		if got.Predicted != want.Predicted || got.Best.Name != want.Best.Name ||
			math.Float64bits(got.Best.Score) != math.Float64bits(want.Best.Score) {
			t.Fatalf("%s/%d: exact verdict %s/%s/%.17g, oracle %s/%s/%.17g", poc.Name, seed,
				got.Predicted, got.Best.Name, got.Best.Score, want.Predicted, want.Best.Name, want.Best.Score)
		}
		if fr := fast.ClassifyBBS(m1.BBS); fr.Predicted != got.Predicted || fr.Best != got.Best {
			t.Fatalf("%s/%d: fast verdict %s %+v, exact %s %+v", poc.Name, seed, fr.Predicted, fr.Best, got.Predicted, got.Best)
		}
	})
}
