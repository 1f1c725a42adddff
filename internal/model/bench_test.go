package model_test

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
)

// BenchmarkBuildFromTrace measures modeling alone — CFG recovery, HPC
// folding, block extraction, Algorithm 1 and CST measurement — over
// the 14 PoCs (Table II and the extensions), one op per PoC model. The
// traces are collected once up front, so this is the modeling
// counterpart of exec's BenchmarkExecRun.
func BenchmarkBuildFromTrace(b *testing.B) {
	type input struct {
		prog  *isa.Program
		trace *exec.Trace
		llc   cache.Config
	}
	p := attacks.DefaultParams()
	var inputs []input
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			b.Fatal(err)
		}
		m, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{poc.Program, m.Run(), m.Hierarchy().LLC().Config()})
	}
	cfg := model.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inputs[i%len(inputs)]
		if _, err := model.BuildFromTrace(in.prog, in.trace, in.llc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
