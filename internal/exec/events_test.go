package exec_test

// Event-log regression tests: the sliding-window detector
// (internal/window) slices the chronological event log by cycle, so the
// log's ordering contract — cycles nondecreasing, duplicates allowed —
// and its replay fidelity are load-bearing. These tests pin both on the
// full PoC corpus plus a benign program.

import (
	"errors"
	"reflect"
	"slices"
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
	m, err := exec.NewMachine(cfg, prog, victim)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// TestEventLogOrdering pins the ordering contract documented on
// exec.Event: cycles never decrease in log order, but duplicates are
// legal (integer-divided overlap latencies can contribute zero cycles).
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
			if last := tr.Events[len(tr.Events)-1].Cycle; last > tr.Cycles {
				t.Fatalf("last event cycle %d past end of trace %d", last, tr.Cycles)
			}
		})
	}
}

// replayCases returns eventCases plus every canonical and extension
// PoC, each with its victim.
func replayCases(t *testing.T) map[string][2]*isa.Program {
	t.Helper()
	cases := eventCases(t)
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, attacks.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = [2]*isa.Program{poc.Program, poc.Victim}
	}
	return cases
}

// sameLines reports whether two traces of one program hold the same
// line touches.
func sameLines(got, want *exec.Trace) bool {
	n := len(want.Insns)
	return slices.Equal(got.Lines(0, n), want.Lines(0, n))
}

// replay rebuilds a trace of prog from events through a fresh
// TraceBuilder.
func replay(prog *isa.Program, events []exec.Event, cycles uint64) *exec.Trace {
	b := exec.NewTraceBuilder(prog)
	for _, ev := range events {
		b.Apply(ev)
	}
	return b.Trace(cycles)
}

// TestEventLogReplayReconstructs verifies that replaying the full event
// log through a TraceBuilder reproduces exactly the modeling-relevant
// trace state — the per-instruction records, the global HPC counters and
// the retire count — which is what lets the window detector model
// arbitrary log slices.
func TestEventLogReplayReconstructs(t *testing.T) {
	for name, pair := range replayCases(t) {
		t.Run(name, func(t *testing.T) {
			tr := recordedRun(t, pair[0], pair[1])
			got := replay(pair[0], tr.Events, tr.Cycles)
			if got.Retired != tr.Retired {
				t.Errorf("retired = %d, want %d", got.Retired, tr.Retired)
			}
			if got.Cycles != tr.Cycles {
				t.Errorf("cycles = %d, want %d", got.Cycles, tr.Cycles)
			}
			if !reflect.DeepEqual(got.Insns, tr.Insns) || !sameLines(got, tr) {
				t.Error("per-instruction records or line touches differ after replay")
			}
			if got.Global != tr.Global {
				t.Errorf("global counts = %v, want %v", got.Global, tr.Global)
			}
		})
	}
}

// TestTraceBuilderIgnoresForeignPC: an event whose PC is no instruction
// of the builder's program (past the code, inside an instruction, or
// far away) changes nothing, of any kind, wherever it falls in the log.
func TestTraceBuilderIgnoresForeignPC(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	tr := recordedRun(t, poc.Program, poc.Victim)
	want := replay(poc.Program, tr.Events, tr.Cycles)
	last := poc.Program.Insns[len(poc.Program.Insns)-1]
	foreign := []uint64{last.Next(), poc.Program.Insns[0].Addr + 1, 1 << 40}
	for _, pc := range foreign {
		if _, ok := poc.Program.IndexOf(pc); ok {
			t.Fatalf("%#x is an instruction of %s", pc, poc.Name)
		}
	}
	var mixed []exec.Event
	for i, ev := range tr.Events {
		mixed = append(mixed, ev)
		f := ev
		f.PC = foreign[i%len(foreign)]
		f.Line = 0x7000
		f.HPC = hpc.Event(i % int(hpc.NumEvents))
		mixed = append(mixed, f)
	}
	got := replay(poc.Program, mixed, tr.Cycles)
	if !reflect.DeepEqual(got.Insns, want.Insns) || !sameLines(got, want) || got.Global != want.Global || got.Retired != want.Retired {
		t.Fatal("events with foreign PCs changed the rebuilt trace")
	}
}

// TestGlobalCountsSumInsnCounts: every HPC event is attributed to one
// instruction, so the global counters are the sum of the
// per-instruction ones.
func TestGlobalCountsSumInsnCounts(t *testing.T) {
	for name, pair := range replayCases(t) {
		tr := recordedRun(t, pair[0], pair[1])
		var sum hpc.Counts
		for i := range tr.Insns {
			sum.Add(tr.Insns[i].HPC)
		}
		if sum != tr.Global || sum.Total() == 0 {
			t.Errorf("%s: per-instruction counts sum to %v, global %v", name, sum, tr.Global)
		}
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

// TestTraceBuilderReset: one builder Reset between the windows of a
// recorded log must rebuild each window exactly as a fresh builder
// does — same records, same global counts, same retire count —
// although it keeps the record storage of every earlier window.
func TestTraceBuilderReset(t *testing.T) {
	const width = 4096
	for name, pair := range eventCases(t) {
		t.Run(name, func(t *testing.T) {
			evs := recordedRun(t, pair[0], pair[1]).Events
			reused := exec.NewTraceBuilder(pair[0])
			windows := 0
			for lo := 0; lo < len(evs); windows++ {
				end := (evs[lo].Cycle/width + 1) * width
				hi := lo
				for hi < len(evs) && evs[hi].Cycle < end {
					hi++
				}
				fresh := exec.NewTraceBuilder(pair[0])
				reused.Reset()
				for _, ev := range evs[lo:hi] {
					fresh.Apply(ev)
					reused.Apply(ev)
				}
				want, got := fresh.Trace(end), reused.Trace(end)
				if !reflect.DeepEqual(got.Insns, want.Insns) || !sameLines(got, want) {
					t.Fatalf("window ending %d: records or line touches differ from a fresh builder's", end)
				}
				if got.Global != want.Global {
					t.Fatalf("window ending %d: global counts differ from a fresh builder's", end)
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
			if tr.Retired != want.Retired || tr.Cycles != want.Cycles || !tr.Halted || !reflect.DeepEqual(tr.Insns, want.Insns) || !sameLines(tr, want) {
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
