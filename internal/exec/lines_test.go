package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attacks"
	"repro/internal/isa"
	"repro/internal/mutate"
)

// refLines is the reference the trace's line set is checked against:
// per instruction, one map set of loaded or stored lines and one of
// flushed lines, filled event by event through refAddLine with each
// set's own last-line memo.
type refLines struct {
	mem, flush         []map[uint64]struct{}
	lastMem, lastFlush []uint64
}

// refAddLine inserts line into *set, creating the set on first use.
// last holds the line inserted previously; repeating it skips the map.
func refAddLine(set *map[uint64]struct{}, last *uint64, line uint64) {
	if *set == nil {
		*set = map[uint64]struct{}{line: {}}
	} else if line != *last {
		(*set)[line] = struct{}{}
	}
	*last = line
}

// newRefLines rebuilds the line sets of prog's instructions from the
// EvMem and EvFlush entries of events.
func newRefLines(prog *isa.Program, events []Event) *refLines {
	n := len(prog.Insns)
	r := &refLines{
		mem: make([]map[uint64]struct{}, n), flush: make([]map[uint64]struct{}, n),
		lastMem: make([]uint64, n), lastFlush: make([]uint64, n),
	}
	for _, ev := range events {
		s, ok := prog.IndexOf(ev.PC)
		if !ok {
			continue
		}
		switch ev.Kind {
		case EvMem:
			refAddLine(&r.mem[s], &r.lastMem[s], ev.Line)
		case EvFlush:
			refAddLine(&r.flush[s], &r.lastFlush[s], ev.Line)
		}
	}
	return r
}

// touches returns the reference sets of slots [lo, hi) in Trace.Lines
// order: by slot, loads and stores before flushes, then by line.
func (r *refLines) touches(lo, hi int) []LineTouch {
	var out []LineTouch
	for s := lo; s < hi; s++ {
		for _, set := range []struct {
			lines map[uint64]struct{}
			flush bool
		}{{r.mem[s], false}, {r.flush[s], true}} {
			start := len(out)
			for l := range set.lines {
				out = append(out, LineTouch{Slot: int32(s), Flush: set.flush, Line: l})
			}
			slices.SortFunc(out[start:], func(a, b LineTouch) int { return cmp.Compare(a.Line, b.Line) })
		}
	}
	return out
}

// checkLines fails unless tr's line set equals ref: over the whole
// program, per instruction, and over random slot ranges.
func checkLines(t *testing.T, what string, prog *isa.Program, tr *Trace, ref *refLines, rng *rand.Rand) {
	t.Helper()
	n := len(prog.Insns)
	if got, want := tr.Lines(0, n), ref.touches(0, n); !slices.Equal(got, want) {
		t.Fatalf("%s: %d line touches, the reference %d (first difference at %d)", what, len(got), len(want), firstDiff(got, want))
	}
	for s := 0; s < n; s++ {
		if got, want := tr.Lines(s, s+1), ref.touches(s, s+1); !slices.Equal(got, want) {
			t.Fatalf("%s: slot %d has line touches %v, the reference %v", what, s, got, want)
		}
	}
	for i := 0; i < 8; i++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		if got, want := tr.Lines(lo, hi), ref.touches(lo, hi); !slices.Equal(got, want) {
			t.Fatalf("%s: slots [%d, %d) have %d line touches, the reference %d", what, lo, hi, len(got), len(want))
		}
	}
}

// firstDiff returns the first index where a and b differ.
func firstDiff(a, b []LineTouch) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestLinesMatchMapReference runs every PoC with its victim, light and
// obfuscating internal/mutate variants of each, the repository's
// hand-written programs and one benign program of each kind with the
// event log on, and rebuilds every instruction's line sets from the
// logged EvMem and EvFlush events through the map-based reference.
// Trace.Lines must equal them exactly, and so must the lines of a
// TraceBuilder replaying random cycle slices of each log, Reset
// between slices.
func TestLinesMatchMapReference(t *testing.T) {
	targets := reuseCorpus(t)
	p := attacks.DefaultParams()
	for i, name := range attacks.Names() {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, mcfg := range []mutate.Config{mutate.LightConfig(int64(i)), mutate.ObfuscationConfig(int64(i))} {
			prog, err := mutate.Mutate(poc.Program, mcfg)
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, reuseTarget{"mutant:" + prog.Name, prog, poc.Victim})
		}
	}
	cfg := DefaultConfig()
	cfg.RecordEvents = true
	rng := rand.New(rand.NewSource(1))
	touched := 0
	for _, tgt := range targets {
		m, err := NewMachine(cfg, tgt.prog, tgt.victim)
		if err != nil {
			t.Fatal(err)
		}
		tr := m.Run()
		if tr.EventsTruncated {
			t.Fatalf("%s: event log truncated", tgt.name)
		}
		touched += len(tr.Lines(0, len(tgt.prog.Insns)))
		checkLines(t, tgt.name, tgt.prog, tr, newRefLines(tgt.prog, tr.Events), rng)

		events := tr.Events
		b := NewTraceBuilder(tgt.prog)
		for i := 0; i < 6 && len(events) > 0; i++ {
			c0 := events[rng.Intn(len(events))].Cycle
			c1 := c0 + uint64(rng.Int63n(int64(tr.Cycles-c0)+1))
			byCycle := func(ev Event, c uint64) int { return cmp.Compare(ev.Cycle, c) }
			lo, _ := slices.BinarySearchFunc(events, c0, byCycle)
			hi, _ := slices.BinarySearchFunc(events, c1, byCycle)
			b.Reset()
			for _, ev := range events[lo:hi] {
				b.Apply(ev)
			}
			what := fmt.Sprintf("%s: replay of cycles [%d, %d)", tgt.name, c0, c1)
			checkLines(t, what, tgt.prog, b.Trace(c1), newRefLines(tgt.prog, events[lo:hi]), rng)
		}
		m.Release()
	}
	if touched == 0 {
		t.Fatal("no run touched a line")
	}
}

// TestLinesOrder pins Lines on touches no corpus program makes: one
// instruction that both loads and flushes, line 0 on a fresh record,
// the largest line, repeats, and touches after a read.
func TestLinesOrder(t *testing.T) {
	prog := isa.NewBuilder("three", 0).Nop().Nop().Hlt().MustBuild()
	tr := newTrace(prog, false, 0)
	tr.flushLine(1, 0x80, 0)
	tr.memLine(1, 0x40, 0)
	tr.memLine(1, 0x40, 1) // a repeat
	tr.flushLine(1, 0, 1)
	tr.memLine(0, math.MaxUint64, 2)
	want := []LineTouch{{0, false, math.MaxUint64}, {1, false, 0x40}, {1, true, 0}, {1, true, 0x80}}
	if got := tr.Lines(0, 3); !slices.Equal(got, want) {
		t.Fatalf("Lines = %v, want %v", got, want)
	}
	tr.memLine(1, 0, 3)
	tr.memLine(0, 0, 3)
	tr.flushLine(2, 0, 3)
	tr.flushLine(1, 0x80, 3) // a repeat, though not of the last flush
	want = []LineTouch{{0, false, 0}, {0, false, math.MaxUint64}, {1, false, 0}, {1, false, 0x40}, {1, true, 0}, {1, true, 0x80}, {2, true, 0}}
	for _, c := range []struct{ lo, hi, from, to int }{{0, 3, 0, 7}, {1, 2, 2, 6}, {2, 3, 6, 7}, {0, 0, 0, 0}, {3, 3, 7, 7}} {
		if got := tr.Lines(c.lo, c.hi); !slices.Equal(got, want[c.from:c.to]) {
			t.Errorf("Lines(%d, %d) = %v, want %v", c.lo, c.hi, got, want[c.from:c.to])
		}
	}
}
