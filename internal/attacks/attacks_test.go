package attacks

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
)

// runPoC executes a PoC and returns the machine after completion.
func runPoC(t *testing.T, poc PoC) *exec.Machine {
	t.Helper()
	m, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatalf("%s: %v", poc.Name, err)
	}
	tr := m.Run()
	if !tr.Halted {
		t.Fatalf("%s: did not halt (retired %d)", poc.Name, tr.Retired)
	}
	return m
}

// histogramArgmax reads an n-entry uint64 histogram at base and returns
// the index with the largest count.
func histogramArgmax(m *exec.Machine, base uint64, n int) (int, uint64) {
	best, bestV := -1, uint64(0)
	for i := 0; i < n; i++ {
		v := m.Memory().Load64(base + uint64(i*8))
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

func segAddr(t *testing.T, p *isa.Program, name string) uint64 {
	t.Helper()
	seg, ok := p.Segment(name)
	if !ok {
		t.Fatalf("%s: missing segment %q", p.Name, name)
	}
	return seg.Addr
}

func TestAllPoCsBuildAndValidate(t *testing.T) {
	pocs := All(DefaultParams())
	if len(pocs) != 11 {
		t.Fatalf("corpus size = %d, want 11 (Table II)", len(pocs))
	}
	for _, poc := range pocs {
		if err := poc.Program.Validate(); err != nil {
			t.Errorf("%s: %v", poc.Name, err)
		}
		if poc.Victim != nil {
			if err := poc.Victim.Validate(); err != nil {
				t.Errorf("%s victim: %v", poc.Name, err)
			}
		}
		if len(poc.Program.AttackAddrs()) == 0 {
			t.Errorf("%s: no ground-truth attack marks", poc.Name)
		}
	}
}

func TestFamiliesAndRegistry(t *testing.T) {
	if len(Families()) != 4 {
		t.Error("four attack families expected")
	}
	names := Names()
	if len(names) != 11 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		poc, err := ByName(n, DefaultParams())
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
		if poc.Name != n {
			t.Errorf("ByName(%q) returned %q", n, poc.Name)
		}
	}
	if _, err := ByName("nope", DefaultParams()); err == nil {
		t.Error("unknown name must error")
	}
	fr := OfFamily(FamilyFR, DefaultParams())
	if len(fr) != 5 {
		t.Errorf("FR family size = %d, want 5", len(fr))
	}
	if len(OfFamily(FamilyPP, DefaultParams())) != 2 {
		t.Error("PP family size wrong")
	}
	if len(OfFamily(FamilySFR, DefaultParams())) != 3 {
		t.Error("S-FR family size wrong")
	}
	if len(OfFamily(FamilySPP, DefaultParams())) != 1 {
		t.Error("S-PP family size wrong")
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	d := DefaultParams()
	d.Secret = 0 // zero is a valid secret and is preserved
	if p != d {
		t.Errorf("defaults = %+v, want %+v", p, d)
	}
	// Secret wraps into the line range.
	p2 := Params{Secret: 100, Lines: 8}.withDefaults()
	if p2.Secret != 100%8 {
		t.Errorf("secret = %d", p2.Secret)
	}
}

// Every Flush+Reload-family PoC must recover which shared line the
// victim touches.
func TestFlushReloadFamilyRecoversSecret(t *testing.T) {
	p := DefaultParams()
	for _, build := range []func(Params) PoC{FlushReloadIAIK, FlushReloadMastik, FlushReloadNepoche} {
		poc := build(p)
		m := runPoC(t, poc)
		histName := "hits"
		if poc.Name == "FR-Mastik" {
			histName = "hist"
		}
		base := segAddr(t, poc.Program, histName)
		got, hits := histogramArgmax(m, base, p.Lines)
		if got != p.Secret {
			t.Errorf("%s: recovered line %d (count %d), want %d", poc.Name, got, hits, p.Secret)
		}
		if hits == 0 {
			t.Errorf("%s: no hits recorded at all", poc.Name)
		}
	}
}

func TestFlushFlushRecoversSecret(t *testing.T) {
	p := DefaultParams()
	poc := FlushFlushIAIK(p)
	m := runPoC(t, poc)
	base := segAddr(t, poc.Program, "hits")
	got, hits := histogramArgmax(m, base, p.Lines)
	if got != p.Secret || hits == 0 {
		t.Errorf("FF-IAIK: recovered line %d (count %d), want %d", got, hits, p.Secret)
	}
}

func TestEvictReloadRecoversSecret(t *testing.T) {
	p := DefaultParams()
	poc := EvictReloadIAIK(p)
	m := runPoC(t, poc)
	base := segAddr(t, poc.Program, "hits")
	got, hits := histogramArgmax(m, base, p.Lines)
	if got != p.Secret || hits == 0 {
		t.Errorf("ER-IAIK: recovered line %d (count %d), want %d", got, hits, p.Secret)
	}
}

func TestPrimeProbeFamilyRecoversSecret(t *testing.T) {
	p := DefaultParams()
	for _, build := range []func(Params) PoC{PrimeProbeIAIK, PrimeProbeJzhang} {
		poc := build(p)
		m := runPoC(t, poc)
		histName := "evictions"
		if poc.Name == "PP-Jzhang" {
			histName = "score"
		}
		base := segAddr(t, poc.Program, histName)
		got, hits := histogramArgmax(m, base, p.Lines)
		if got != p.Secret || hits == 0 {
			t.Errorf("%s: recovered set %d (count %d), want %d", poc.Name, got, hits, p.Secret)
		}
	}
}

func TestSpectreFRVariantsLeakSecret(t *testing.T) {
	p := DefaultParams()
	wantLine := p.Secret % spectreProbeLines
	for _, build := range []func(Params) PoC{SpectreFRIdea, SpectreFRGood, SpectreFRMin} {
		poc := build(p)
		if poc.Victim != nil {
			t.Errorf("%s: spectre PoCs are self-contained", poc.Name)
		}
		m := runPoC(t, poc)
		base := segAddr(t, poc.Program, "hist")
		got, hits := histogramArgmax(m, base, spectreProbeLines)
		if got != wantLine || hits == 0 {
			t.Errorf("%s: leaked line %d (count %d), want %d", poc.Name, got, hits, wantLine)
		}
	}
}

func TestSpectrePPLeaksSecret(t *testing.T) {
	p := DefaultParams()
	wantSet := p.Secret % spectreProbeLines
	poc := SpectrePPTrippel(p)
	m := runPoC(t, poc)
	base := segAddr(t, poc.Program, "hist")
	// Set 0 may carry training pollution; the secret set must still hold
	// a nonzero count.
	hit := m.Memory().Load64(base + uint64(wantSet*8))
	if hit == 0 {
		t.Errorf("S-PP-Trippel: secret set %d never flagged", wantSet)
	}
	// And the signal must be selective: not every set flagged.
	flagged := 0
	for i := 0; i < spectreProbeLines; i++ {
		if m.Memory().Load64(base+uint64(i*8)) > 0 {
			flagged++
		}
	}
	if flagged > spectreProbeLines/2 {
		t.Errorf("S-PP-Trippel: %d of %d sets flagged; not selective", flagged, spectreProbeLines)
	}
}

// Different Secret parameters must change what is recovered — the PoCs
// react to the victim, they don't just replay a constant.
func TestSecretParameterIsRespected(t *testing.T) {
	for _, secret := range []int{2, 9} {
		p := DefaultParams()
		p.Secret = secret
		poc := FlushReloadIAIK(p)
		m := runPoC(t, poc)
		base := segAddr(t, poc.Program, "hits")
		got, _ := histogramArgmax(m, base, p.Lines)
		if got != secret {
			t.Errorf("secret=%d: recovered %d", secret, got)
		}
	}
}

func TestVictims(t *testing.T) {
	p := DefaultParams()
	for _, v := range []*isa.Program{SharedVictim(p), SetVictim(p), quietVictim()} {
		if err := v.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
}

// PoCs must contain attack-irrelevant code too, or the block-reduction
// evaluation of Table IV would be vacuous.
func TestPoCsContainIrrelevantCode(t *testing.T) {
	for _, poc := range All(DefaultParams()) {
		total := len(poc.Program.Insns)
		marked := len(poc.Program.AttackAddrs())
		if marked == 0 || marked >= total {
			t.Errorf("%s: %d of %d instructions marked; need a strict subset",
				poc.Name, marked, total)
		}
	}
}

// The intro's motivating scenario end-to-end: Flush+Reload against a
// crypto library's shared T-table recovers the victim's key nibble.
func TestFlushReloadRecoversAESKeyNibble(t *testing.T) {
	const keyNibble = 13
	p := DefaultParams()
	p.Lines = 16
	p.Secret = keyNibble // used only to size the attack; victim overrides
	poc := FlushReloadIAIK(p)
	poc.Victim = aesTableVictim(keyNibble)
	m := runPoC(t, poc)
	base := segAddr(t, poc.Program, "hits")
	got, hits := histogramArgmax(m, base, p.Lines)
	if got != keyNibble || hits == 0 {
		t.Errorf("recovered key nibble %d (count %d), want %d", got, hits, keyNibble)
	}
}

// quietVictim builds a victim with no secret-dependent access at all; it
// exists for experiments that need the attacker to run against silence.
func quietVictim() *isa.Program {
	b := isa.NewBuilder("victim-quiet", VictimCodeBase)
	b.SetDataBase(VictimDataBase)
	b.Mov(isa.R(isa.R0), isa.Imm(0)).
		Label("spin").
		Inc(isa.R(isa.R0)).
		Jmp("spin")
	return b.MustBuild()
}

// aesTableVictim models the paper's motivating target: a crypto library
// whose S-box/T-table lives in shared memory (a shared library page).
// Each iteration it encrypts a fixed plaintext block: the table index is
// keyNibble XOR (round counter & 15), so the victim's shared-line access
// pattern is key-dependent — the access pattern Flush+Reload recovers.
//
// The table occupies 16 shared lines starting at SharedBase; an attacker
// monitoring those lines sees line (keyNibble XOR r) hot during round r.
// With the round counter pinned (rounds = 0 mod 16 layout below), the
// hottest line directly names the key nibble.
func aesTableVictim(keyNibble int) *isa.Program {
	keyNibble &= 15
	b := isa.NewBuilder("victim-aes", VictimCodeBase)
	b.SetDataBase(VictimDataBase)
	state := b.Bytes("vstate", 128, false)

	b.Mov(isa.R(isa.R7), isa.Imm(0)) // block counter
	b.Label("encrypt")
	// index = key ^ (block & 0) = key — the fixed-plaintext case where
	// every encryption touches the same key-dependent table line, the
	// cleanest Flush+Reload signal (chosen-plaintext attacks vary this).
	b.Mov(isa.R(isa.R1), isa.Imm(int64(keyNibble))).
		Shl(isa.R(isa.R1), isa.Imm(6)).
		Add(isa.R(isa.R1), isa.Imm(int64(SharedBase))).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0))
	// Mix into local state (the "encryption work").
	b.Mov(isa.R(isa.R2), isa.R(isa.R7)).
		And(isa.R(isa.R2), isa.Imm(15)).
		Lea(isa.R3, isa.MemIdx(isa.RegNone, isa.R2, 8, int64(state))).
		Xor(isa.R(isa.R0), isa.Mem(isa.R3, 0)).
		Mov(isa.Mem(isa.R3, 0), isa.R(isa.R0))
	b.Inc(isa.R(isa.R7)).
		Jmp("encrypt")
	return b.MustBuild()
}
