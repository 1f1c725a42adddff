package baseline

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/exec"
	"repro/internal/hpc"
	"repro/internal/isa"
)

// record runs prog (with an optional victim) under the default
// configuration with rec as its event sink, and finishes rec.
func record(t *testing.T, rec *Recorder, prog, victim *isa.Program) *exec.Trace {
	t.Helper()
	m, err := exec.NewMachine(exec.DefaultConfig(), prog, victim)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.RunEvents(rec.Feed)
	if err != nil {
		t.Fatal(err)
	}
	rec.Finish()
	return tr
}

func newDefaultRecorder() *Recorder {
	return NewRecorder(exec.DefaultConfig().Hierarchy.LLC)
}

// strideLoop loads one line of an n-byte buffer per iteration.
func strideLoop(n uint64) *isa.Program {
	b := isa.NewBuilder("stride", 0)
	buf := b.Bytes("buf", n, false)
	b.Mov(isa.R(isa.R0), isa.Imm(0)).
		Label("loop").
		Mov(isa.R(isa.R1), isa.MemIdx(isa.R2, isa.R0, 1, int64(buf))).
		Add(isa.R(isa.R0), isa.Imm(64)).
		Cmp(isa.R(isa.R0), isa.Imm(int64(n))).
		Jl("loop").
		Hlt()
	return b.MustBuild()
}

// TestWindowSampling: narrow windows split a run into several samples
// whose counts sum to the run's global counters, and so do the default
// windows of a PoC.
func TestWindowSampling(t *testing.T) {
	rec := newDefaultRecorder()
	rec.width = 64
	tr := record(t, rec, strideLoop(8192), nil)
	if len(rec.Windows) < 2 {
		t.Fatalf("windows = %d, want several", len(rec.Windows))
	}
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	pocRec := newDefaultRecorder()
	pocTr := record(t, pocRec, poc.Program, poc.Victim)
	for _, c := range []struct {
		rec *Recorder
		tr  *exec.Trace
	}{{rec, tr}, {pocRec, pocTr}} {
		var total hpc.Counts
		for i, w := range c.rec.Windows {
			if w.StartCycle%c.rec.width != 0 || (i > 0 && w.StartCycle <= c.rec.Windows[i-1].StartCycle) {
				t.Fatalf("window %d starts at cycle %d", i, w.StartCycle)
			}
			total.Add(w.Counts)
		}
		if total != c.tr.Global {
			t.Error("window sum must equal global counters")
		}
	}
}

// setTraceProgram reads, writes and flushes one buffer.
func setTraceProgram() *isa.Program {
	b := isa.NewBuilder("st", 0)
	buf := b.Bytes("buf", 256, false)
	b.Mov(isa.R(isa.R1), isa.Imm(int64(buf))).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Mov(isa.Mem(isa.R1, 64), isa.Imm(1)).
		Clflush(isa.Mem(isa.R1, 0)).
		Hlt()
	return b.MustBuild()
}

// TestSetTraceRecorded: the read, the write and the flush each give one
// entry, in the LLC set of their line.
func TestSetTraceRecorded(t *testing.T) {
	rec := newDefaultRecorder()
	record(t, rec, setTraceProgram(), nil)
	var accesses, flushes int
	for _, e := range rec.SetTrace {
		if e.Flush {
			flushes++
		} else {
			accesses++
		}
		if e.Set != rec.llc.SetIndex(e.Line) {
			t.Errorf("line %#x recorded in set %d, want %d", e.Line, e.Set, rec.llc.SetIndex(e.Line))
		}
	}
	if accesses < 2 || flushes != 1 {
		t.Errorf("set trace accesses/flushes = %d/%d, want >= 2/1", accesses, flushes)
	}
}

func TestSetTraceCap(t *testing.T) {
	rec := newDefaultRecorder()
	rec.maxSetTrace = 5
	record(t, rec, strideLoop(4096), nil)
	if len(rec.SetTrace) != 5 {
		t.Errorf("set trace = %d entries, want capped 5", len(rec.SetTrace))
	}
}

// TestSetTraceOrdering: the set trace is chronological — its cycles
// never decrease — for every attack family.
func TestSetTraceOrdering(t *testing.T) {
	p := attacks.DefaultParams()
	for _, poc := range []attacks.PoC{
		attacks.FlushReloadIAIK(p),
		attacks.PrimeProbeIAIK(p),
		attacks.SpectreFRIdea(p),
		attacks.SpectrePPTrippel(p),
	} {
		rec := newDefaultRecorder()
		record(t, rec, poc.Program, poc.Victim)
		if len(rec.SetTrace) == 0 {
			t.Fatalf("%s: no set trace recorded", poc.Name)
		}
		for i := 1; i < len(rec.SetTrace); i++ {
			if rec.SetTrace[i].Cycle < rec.SetTrace[i-1].Cycle {
				t.Fatalf("%s: set trace %d: cycle %d < predecessor %d",
					poc.Name, i, rec.SetTrace[i].Cycle, rec.SetTrace[i-1].Cycle)
			}
		}
	}
}
