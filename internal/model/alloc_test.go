package model

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/isa"
)

// TestModelBuildAllocs pins the heap allocations of one full model
// build (CFG recovery, simulation, modeling) of an attack and a benign
// program, with the machine and the measurement cache reused. The
// counts are deterministic (measured at 72 and 52), so each budget is
// the measured count plus ~2%: a change that brings back per-event allocation in the
// simulator, or a cache built per model, fails here before it shows as
// latency. Lower a budget when a change removes allocations.
func TestModelBuildAllocs(t *testing.T) {
	poc := attacks.FlushReloadMastik(attacks.DefaultParams())
	tmpl := benign.Templates(benign.KindCrypto)[0]
	prog, err := benign.Generate(benign.Spec{Kind: benign.KindCrypto, Template: tmpl, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prog, victim *isa.Program
		budget       float64
	}{
		{poc.Program, poc.Victim, 73},
		{prog, nil, 53},
	} {
		got := testing.AllocsPerRun(10, func() {
			if _, err := Build(c.prog, c.victim, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per build (budget %.0f)", c.prog.Name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: %.0f allocs per model build, budget %.0f", c.prog.Name, got, c.budget)
		}
	}
}
