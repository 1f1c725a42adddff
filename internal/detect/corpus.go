package detect

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/attacks"
	"repro/internal/model"
	"repro/internal/mutate"
)

// CorpusConfig tunes BuildVariantRepository.
type CorpusConfig struct {
	// PerFamily is the number of mutated variants generated per attack
	// family (<= 0 selects 125, which with the four families clears the
	// 500-variant stress-corpus floor).
	PerFamily int
	// Seed is the corpus base seed. Every variant derives its own
	// mutation and parameter seeds from (Seed, family, index) via
	// mutate.DeriveSeed, so the corpus is a pure function of this value:
	// regenerating it — on another machine, in another order, as a
	// subset — yields byte-identical models.
	Seed int64
	// Obfuscate switches from the light mutation profile to the
	// polymorphic obfuscation profile (E4-style junk-block insertion).
	Obfuscate bool
	// Model configures the modeling pipeline (zero value = defaults).
	Model model.Config
}

// BuildVariantRepository generates the mutation stress corpus: a
// repository of PerFamily seeded variants per attack family, each built
// by varying the family PoC's parameters and mutating the resulting
// program before modeling. It is the generation mode behind
// `scaguard-corpus -out` and the population of the index benchmarks —
// large enough that flat-versus-indexed scan costs separate cleanly,
// and deterministic enough that two builds anywhere agree byte for
// byte (see TestVariantRepositoryDeterministic).
//
// Variant identity is (Seed, family, index): parameters and the
// mutation seed are derived per variant with mutate.DeriveSeed rather
// than drawn sequentially from one shared rng, so no variant's content
// depends on how many were generated before it.
//
// The variants are modeled in parallel (see buildModels) and added in
// (family, index) order, so the worker count never shows in the result.
func BuildVariantRepository(cfg CorpusConfig) (*Repository, error) {
	per := cfg.PerFamily
	if per <= 0 {
		per = 125
	}
	fams := attacks.Families()
	bases := make([][]attacks.PoC, len(fams))
	for f, fam := range fams {
		bases[f] = attacks.OfFamily(fam, attacks.DefaultParams())
		if len(bases[f]) == 0 {
			return nil, fmt.Errorf("detect: family %s has no PoCs", fam)
		}
	}
	// Job j is variant i = j%per of family j/per, derived from that
	// family's PoC i (cyclically).
	variant := func(j int) (fam attacks.Family, poc attacks.PoC, i int) {
		f, i := j/per, j%per
		return fams[f], bases[f][i%len(bases[f])], i
	}
	bbs, err := buildModels(len(fams)*per, func(j int) (*model.CSTBBS, error) {
		fam, poc, i := variant(j)
		idx := strconv.Itoa(i)
		// Parameter variation gets its own derived stream, split from
		// the mutation seed so changing one profile never shifts the
		// other.
		prng := rand.New(rand.NewSource(mutate.DeriveSeed(cfg.Seed, "params", string(fam), idx)))
		params := varyParams(prng)
		varied, err := attacks.ByName(poc.Name, params)
		if err != nil {
			return nil, fmt.Errorf("detect: corpus variant %s/%d: %w", fam, i, err)
		}
		mseed := mutate.DeriveSeed(cfg.Seed, "mutate", poc.Name, idx)
		mcfg := mutate.LightConfig(mseed)
		if cfg.Obfuscate {
			mcfg = mutate.ObfuscationConfig(mseed)
		}
		prog, err := mutate.Mutate(varied.Program, mcfg)
		if err != nil {
			return nil, fmt.Errorf("detect: mutating %s/%d: %w", poc.Name, i, err)
		}
		m, err := model.Build(prog, varied.Victim, cfg.Model)
		if err != nil {
			return nil, fmt.Errorf("detect: modeling %s/%d: %w", poc.Name, i, err)
		}
		return m.BBS, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Repository{}
	for j, b := range bbs {
		fam, poc, i := variant(j)
		r.Add(fmt.Sprintf("%s-x%03d", poc.Name, i), fam, b)
	}
	return r, nil
}

// varyParams draws diversified but working attack parameters — the
// same ranges internal/dataset uses (kept unexported there; the two
// corpora evolve independently, only the ranges coincide today).
func varyParams(rng *rand.Rand) attacks.Params {
	p := attacks.DefaultParams()
	p.Rounds = 3 + rng.Intn(3)
	p.Lines = 8 + rng.Intn(8)
	p.Wait = 16 + rng.Intn(24)
	p.Secret = rng.Intn(p.Lines)
	return p
}
