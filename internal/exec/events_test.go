package exec_test

// Event-log regression tests: the sliding-window detector
// (internal/window) slices the chronological event log by cycle, so the
// log's ordering contract — cycles nondecreasing, duplicates allowed —
// and its replay fidelity are load-bearing. These tests pin both on the
// full PoC corpus plus a benign program.

import (
	"reflect"
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/exec"
	"repro/internal/hpc"
	"repro/internal/isa"
)

// eventCases returns named (program, victim) pairs covering every attack
// family plus a benign crypto workload.
func eventCases(t *testing.T) map[string][2]*isa.Program {
	t.Helper()
	p := attacks.DefaultParams()
	cases := make(map[string][2]*isa.Program)
	for _, poc := range []attacks.PoC{
		attacks.FlushReloadIAIK(p),
		attacks.PrimeProbeIAIK(p),
		attacks.SpectreFRIdea(p),
		attacks.SpectrePPTrippel(p),
	} {
		cases[poc.Name] = [2]*isa.Program{poc.Program, poc.Victim}
	}
	tmpl := benign.Templates(benign.KindCrypto)[0]
	prog, err := benign.Generate(benign.Spec{Kind: benign.KindCrypto, Template: tmpl, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases[prog.Name] = [2]*isa.Program{prog, nil}
	return cases
}

func recordedRun(t *testing.T, prog, victim *isa.Program) *exec.Trace {
	t.Helper()
	cfg := exec.DefaultConfig()
	cfg.RecordEvents = true
	cfg.MaxSetTrace = exec.DefaultMaxSetTrace
	m, err := exec.NewMachine(cfg, prog, victim)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// TestEventLogOrdering pins the ordering contract documented on
// exec.Event: cycles never decrease in log order, but duplicates are
// legal (integer-divided overlap latencies can contribute zero cycles).
// The same holds for the chronological cache-set trace.
func TestEventLogOrdering(t *testing.T) {
	for name, pair := range eventCases(t) {
		t.Run(name, func(t *testing.T) {
			tr := recordedRun(t, pair[0], pair[1])
			if len(tr.Events) == 0 {
				t.Fatal("no events recorded")
			}
			if tr.EventsTruncated {
				t.Fatal("event log truncated under default cap")
			}
			dupes := false
			for i := 1; i < len(tr.Events); i++ {
				prev, cur := tr.Events[i-1].Cycle, tr.Events[i].Cycle
				if cur < prev {
					t.Fatalf("event %d: cycle %d < predecessor %d", i, cur, prev)
				}
				if cur == prev {
					dupes = true
				}
			}
			if !dupes {
				// Not a failure — but the contract says duplicates exist, and
				// every corpus program produces some (zero-latency overlapped
				// accesses). If this starts firing, the contract comment on
				// exec.Event needs revisiting.
				t.Log("no duplicate cycles observed; ordering contract may be stale")
			}
			for i := 1; i < len(tr.SetTrace); i++ {
				if tr.SetTrace[i].Cycle < tr.SetTrace[i-1].Cycle {
					t.Fatalf("set trace %d: cycle %d < predecessor %d",
						i, tr.SetTrace[i].Cycle, tr.SetTrace[i-1].Cycle)
				}
			}
			if last := tr.Events[len(tr.Events)-1].Cycle; last > tr.Cycles {
				t.Fatalf("last event cycle %d past end of trace %d", last, tr.Cycles)
			}
		})
	}
}

// TestEventLogReplayReconstructs verifies that replaying the full event
// log through a TraceBuilder reproduces exactly the modeling-relevant
// trace state — per-address records, the HPC bank and the retire count —
// which is what lets the window detector model arbitrary log slices.
func TestEventLogReplayReconstructs(t *testing.T) {
	for name, pair := range eventCases(t) {
		t.Run(name, func(t *testing.T) {
			tr := recordedRun(t, pair[0], pair[1])
			b := exec.NewTraceBuilder()
			for _, ev := range tr.Events {
				b.Apply(ev)
			}
			got := b.Trace(tr.Cycles)
			if got.Retired != tr.Retired {
				t.Errorf("retired = %d, want %d", got.Retired, tr.Retired)
			}
			if got.Cycles != tr.Cycles {
				t.Errorf("cycles = %d, want %d", got.Cycles, tr.Cycles)
			}
			if !reflect.DeepEqual(got.ByAddr, tr.ByAddr) {
				t.Error("ByAddr mismatch after replay")
			}
			if !reflect.DeepEqual(got.Bank.Global(), tr.Bank.Global()) {
				t.Errorf("global counts = %v, want %v", got.Bank.Global(), tr.Bank.Global())
			}
			if !reflect.DeepEqual(hpcValueByAddr(got.Bank), hpcValueByAddr(tr.Bank)) {
				t.Error("per-address HPC values mismatch after replay")
			}
		})
	}
}

// TestEventLogOffByDefault: recording costs memory, so it must be
// strictly opt-in.
func TestEventLogOffByDefault(t *testing.T) {
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	m, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if tr.Events != nil {
		t.Fatalf("events recorded without RecordEvents: %d", len(tr.Events))
	}
	if tr.EventsTruncated {
		t.Fatal("truncation flagged with recording off")
	}
}

// TestEventLogTruncation: overflowing MaxEvents must stop recording and
// raise the flag rather than grow without bound or drop silently.
func TestEventLogTruncation(t *testing.T) {
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	cfg := exec.DefaultConfig()
	cfg.RecordEvents = true
	cfg.MaxEvents = 16
	m, err := exec.NewMachine(cfg, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if !tr.EventsTruncated {
		t.Fatal("expected truncation flag")
	}
	if len(tr.Events) > 16 {
		t.Fatalf("log grew past cap: %d", len(tr.Events))
	}
}

// hpcValueByAddr maps every address with a nonzero HPC value to that
// value: the per-address view the pipeline folds onto basic blocks.
func hpcValueByAddr(b *hpc.Bank) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for _, a := range b.Addrs() {
		if v := b.At(a).Sum(); v > 0 {
			out[a] = v
		}
	}
	return out
}
