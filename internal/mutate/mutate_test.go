package mutate

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
)

func TestMutateRejectsBadInput(t *testing.T) {
	if _, err := Mutate(nil, LightConfig(1)); err == nil {
		t.Error("nil program must fail")
	}
	if _, err := Mutate(&isa.Program{Name: "x"}, LightConfig(1)); err == nil {
		t.Error("invalid program must fail")
	}
}

func TestMutateDeterministic(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	a, err := Mutate(poc.Program, LightConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mutate(poc.Program, LightConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Insns) != len(b.Insns) {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Insns {
		if a.Insns[i] != b.Insns[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestMutateChangesSyntax(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	m, err := Mutate(poc.Program, LightConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name == poc.Program.Name {
		t.Error("mutant must be renamed")
	}
	diff := 0
	n := len(poc.Program.Insns)
	if len(m.Insns) < n {
		n = len(m.Insns)
	}
	for i := 0; i < n; i++ {
		if poc.Program.Insns[i].Op != m.Insns[i].Op ||
			poc.Program.Insns[i].Dst != m.Insns[i].Dst {
			diff++
		}
	}
	if diff == 0 && len(m.Insns) == len(poc.Program.Insns) {
		t.Error("mutation changed nothing")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	poc := attacks.PrimeProbeIAIK(attacks.DefaultParams())
	a, _ := Mutate(poc.Program, LightConfig(1))
	b, _ := Mutate(poc.Program, LightConfig(2))
	same := len(a.Insns) == len(b.Insns)
	if same {
		for i := range a.Insns {
			if a.Insns[i] != b.Insns[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical mutants")
	}
}

// The decisive test: a mutated Flush+Reload still recovers the secret.
func TestMutatedAttackStillWorks(t *testing.T) {
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		m, err := Mutate(poc.Program, LightConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runAndCheckSecret(t, m, poc.Victim, p, "hits")
	}
}

func TestObfuscatedAttackStillWorks(t *testing.T) {
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadMastik(p)
	for _, seed := range []int64{11, 12, 13} {
		m, err := Mutate(poc.Program, ObfuscationConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runAndCheckSecret(t, m, poc.Victim, p, "hist")
	}
}

func runAndCheckSecret(t *testing.T, prog, victim *isa.Program, p attacks.Params, seg string) {
	t.Helper()
	machine, err := exec.NewMachine(exec.DefaultConfig(), prog, victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := machine.Run()
	if !tr.Halted {
		t.Fatalf("%s: mutant did not halt", prog.Name)
	}
	s, ok := prog.Segment(seg)
	if !ok {
		t.Fatalf("%s: segment %q missing", prog.Name, seg)
	}
	best, bestV := -1, uint64(0)
	for i := 0; i < p.Lines; i++ {
		v := machine.Memory().Load64(s.Addr + uint64(i*8))
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best != p.Secret {
		t.Errorf("%s: recovered %d (count %d), want %d", prog.Name, best, bestV, p.Secret)
	}
}

// Obfuscation must inflate the basic-block count substantially (the
// paper reports +70.49% on average).
func TestObfuscationInflatesBlocks(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	orig := cfg.MustBuild(poc.Program).NumBlocks()
	total := 0.0
	const trials = 8
	for seed := int64(0); seed < trials; seed++ {
		m, err := Mutate(poc.Program, ObfuscationConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		obf := cfg.MustBuild(m).NumBlocks()
		total += float64(obf-orig) / float64(orig)
	}
	avg := total / trials * 100
	if avg < 40 || avg > 120 {
		t.Errorf("average BB inflation = %.1f%%, want roughly 70%%", avg)
	}
}

func TestLightMutationKeepsSizeSimilar(t *testing.T) {
	poc := attacks.EvictReloadIAIK(attacks.DefaultParams())
	m, err := Mutate(poc.Program, LightConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(m.Insns)) / float64(len(poc.Program.Insns))
	if ratio > 1.3 {
		t.Errorf("light mutation grew program by %.0f%%", (ratio-1)*100)
	}
}

func TestAttackMarksSurviveMutation(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	m, err := Mutate(poc.Program, ObfuscationConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.AttackAddrs()) != len(poc.Program.AttackAddrs()) {
		t.Errorf("attack marks: %d -> %d", len(poc.Program.AttackAddrs()), len(m.AttackAddrs()))
	}
}

func TestLabelsAndEntryRemapped(t *testing.T) {
	b := isa.NewBuilder("lbl", 0x100)
	b.Label("start").Nop().Label("mid").Nop().Jmp("mid").Entry("start")
	p := b.MustBuild()
	m, err := Mutate(p, Config{Seed: 1, NopRate: 1}) // force insertions
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.IndexOf(m.Entry); !ok {
		t.Error("entry not remapped to an instruction")
	}
	mid, ok := m.Labels["mid"]
	if !ok {
		t.Fatal("label lost")
	}
	if i, ok := m.IndexOf(mid); !ok || m.Insns[i].Op != isa.NOP {
		t.Errorf("label mid points at %#x, not a NOP", mid)
	}
}

// Substituted forms must be semantically identical: run a program
// exercising every substitution and compare final register state.
func TestSubstitutionEquivalence(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder("subst", 0)
		b.Mov(isa.R(isa.R0), isa.Imm(10)).
			Inc(isa.R(isa.R0)).                 // -> add 1
			Dec(isa.R(isa.R0)).                 // -> sub 1
			Add(isa.R(isa.R0), isa.Imm(1)).     // -> inc
			Sub(isa.R(isa.R0), isa.Imm(1)).     // -> dec
			Shl(isa.R(isa.R0), isa.Imm(1)).     // -> add self
			Test(isa.R(isa.R0), isa.R(isa.R0)). // -> cmp 0
			Je("zero").
			Inc(isa.R(isa.R1)).
			Label("zero").
			Hlt()
		return b.MustBuild()
	}
	run := func(p *isa.Program) [2]uint64 {
		m, err := exec.NewMachine(exec.DefaultConfig(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := m.Run()
		if !tr.Halted {
			t.Fatal("did not halt")
		}
		mem := m.Memory()
		_ = mem
		return [2]uint64{regValue(m, 0), regValue(m, 1)}
	}
	orig := run(build())
	mut, err := Mutate(build(), Config{Seed: 3, SubstituteRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := run(mut)
	if orig != got {
		t.Errorf("substitution changed semantics: %v vs %v", orig, got)
	}
}

// regValue peeks a register of the monitored process via the exported
// test hook: re-run is cheap so we read through memory instead. Here we
// cheat by adding stores in the test program; to keep it simple this
// helper reads the canonical result registers via reflection-free means.
func regValue(m *exec.Machine, r int) uint64 {
	return m.RegisterOfMonitored(isa.Reg(r))
}

func TestFlagSafePositions(t *testing.T) {
	ins := []isa.Instruction{
		{Op: isa.MOV, Dst: isa.R(isa.R0), Src: isa.Imm(1), Size: 4},
		{Op: isa.CMP, Dst: isa.R(isa.R0), Src: isa.Imm(2), Size: 4},
		{Op: isa.JL, Dst: isa.Imm(0), Size: 4},
		{Op: isa.HLT, Size: 4},
	}
	safe := flagSafePositions(ins)
	if !safe[0] || !safe[1] {
		t.Error("positions before the CMP must be flag-safe")
	}
	if safe[2] {
		t.Error("position between CMP and JL must be unsafe")
	}
	if !safe[3] {
		t.Error("position after the branch must be safe")
	}
}

func TestJunkBlockShape(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	m, err := Mutate(poc.Program, Config{Seed: 2, JunkRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every junk JE must target an address inside the program.
	for _, in := range m.Insns {
		if t2, ok := in.BranchTarget(); ok {
			if _, exists := m.IndexOf(t2); !exists {
				t.Fatalf("branch at %#x targets nothing", in.Addr)
			}
		}
	}
}
