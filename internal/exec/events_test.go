package exec_test

// Event-log regression tests: the sliding-window detector
// (internal/window) slices the chronological event log by cycle, so the
// log's ordering contract — cycles nondecreasing, duplicates allowed —
// and its replay fidelity are load-bearing. These tests pin both on the
// full PoC corpus plus a benign program.

import (
	"errors"
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

// TestTraceBuilderReset: one builder Reset between the windows of a
// recorded log must rebuild each window exactly as a fresh builder
// does — same records, same HPC bank, same retire count — although it
// keeps the slot assignment and storage of every earlier window.
func TestTraceBuilderReset(t *testing.T) {
	const width = 4096
	for name, pair := range eventCases(t) {
		t.Run(name, func(t *testing.T) {
			evs := recordedRun(t, pair[0], pair[1]).Events
			reused := exec.NewTraceBuilder()
			windows := 0
			for lo := 0; lo < len(evs); windows++ {
				end := (evs[lo].Cycle/width + 1) * width
				hi := lo
				for hi < len(evs) && evs[hi].Cycle < end {
					hi++
				}
				fresh := exec.NewTraceBuilder()
				reused.Reset()
				for _, ev := range evs[lo:hi] {
					fresh.Apply(ev)
					reused.Apply(ev)
				}
				want, got := fresh.Trace(end), reused.Trace(end)
				if !reflect.DeepEqual(got.ByAddr, want.ByAddr) {
					t.Fatalf("window ending %d: ByAddr differs from a fresh builder's", end)
				}
				if !reflect.DeepEqual(got.Bank, want.Bank) {
					t.Fatalf("window ending %d: HPC bank differs from a fresh builder's", end)
				}
				if got.Retired != want.Retired || got.Cycles != want.Cycles {
					t.Fatalf("window ending %d: retired/cycles %d/%d, fresh %d/%d", end, got.Retired, got.Cycles, want.Retired, want.Cycles)
				}
				lo = hi
			}
			if windows < 2 {
				t.Fatalf("only %d windows: nothing was reset", windows)
			}
		})
	}
}

// TestRunEventsStreams: RunEvents hands the sink exactly the events a
// recording run logs, keeps no log of its own (whatever RecordEvents
// says) and leaves the rest of the trace as Run does.
func TestRunEventsStreams(t *testing.T) {
	for name, pair := range eventCases(t) {
		t.Run(name, func(t *testing.T) {
			want := recordedRun(t, pair[0], pair[1])
			cfg := exec.DefaultConfig()
			cfg.RecordEvents = true
			cfg.MaxEvents = 1 // the cap bounds logs, not streams
			m, err := exec.NewMachine(cfg, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			var got []exec.Event
			tr, err := m.RunEvents(func(ev exec.Event) error {
				got = append(got, ev)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.Events) {
				t.Fatalf("sink saw %d events, the log holds %d", len(got), len(want.Events))
			}
			if tr.Events != nil || tr.EventsTruncated {
				t.Fatalf("streamed run kept a log: %d events, truncated %v", len(tr.Events), tr.EventsTruncated)
			}
			if tr.Retired != want.Retired || tr.Cycles != want.Cycles || !tr.Halted || !reflect.DeepEqual(tr.ByAddr, want.ByAddr) {
				t.Fatal("streamed run's trace differs from the recorded run's")
			}
		})
	}
}

// TestRunEventsStopsOnSinkError: once the sink fails, it sees no
// further event, the run stops at the next step boundary, and RunEvents
// returns the sink's error.
func TestRunEventsStopsOnSinkError(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	full, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	fullTr := full.Run()
	m, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	const at = 100
	calls := 0
	tr, err := m.RunEvents(func(exec.Event) error {
		calls++
		if calls >= at {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("RunEvents returned %v, want the sink's error", err)
	}
	if calls != at {
		t.Fatalf("sink called %d times, want %d", calls, at)
	}
	// Every retired instruction emits at least one event, so a run that
	// stopped within a step of the 100th event retired at most 100.
	if tr.Halted || tr.Retired > at || tr.Retired >= fullTr.Retired {
		t.Fatalf("run went on after the sink failed: retired %d of %d, halted %v", tr.Retired, fullTr.Retired, tr.Halted)
	}
}
