package exec_test

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/exec"
)

// BenchmarkExecRun measures the simulator alone — NewMachine plus Run —
// over the 14 PoCs (Table II and the extensions), one op per PoC run.
// It reports the cost per retired instruction of the monitored process
// next to the usual ns/op and allocs/op. cold never releases its
// machines, so every run builds one from scratch; reuse releases each
// machine after its run, so the next run resets it, the path model
// builds, window.Watch and the trigger explorer take.
func BenchmarkExecRun(b *testing.B) {
	p := attacks.DefaultParams()
	var pocs []attacks.PoC
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			b.Fatal(err)
		}
		pocs = append(pocs, poc)
	}
	cfg := exec.DefaultConfig()
	for _, bc := range []struct {
		name    string
		release bool
	}{{"cold", false}, {"reuse", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var retired uint64
			for i := 0; i < b.N; i++ {
				poc := pocs[i%len(pocs)]
				m, err := exec.NewMachine(cfg, poc.Program, poc.Victim)
				if err != nil {
					b.Fatal(err)
				}
				retired += m.Run().Retired
				if bc.release {
					m.Release()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns/insn")
		})
	}
}
