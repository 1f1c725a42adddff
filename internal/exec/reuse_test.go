package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mutate"
)

// reuseTarget is one program, with its victim or nil, run by the reuse
// tests.
type reuseTarget struct {
	name         string
	prog, victim *isa.Program
}

// reuseCorpus is the golden corpus: every Table II PoC and extension
// with its victim, the hand-written programs of the repository's
// testdata, and one benign program of each kind.
func reuseCorpus(t testing.TB) []reuseTarget {
	t.Helper()
	var out []reuseTarget
	p := attacks.DefaultParams()
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reuseTarget{"attack:" + name, poc.Program, poc.Victim})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no hand-written programs in testdata")
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := isa.Parse(filepath.Base(f), string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", f, err)
		}
		out = append(out, reuseTarget{"file:" + filepath.Base(f), prog, nil})
	}
	for _, kind := range benign.Kinds() {
		tmpls := benign.Templates(kind)
		sort.Strings(tmpls)
		prog, err := benign.Generate(benign.Spec{Kind: kind, Template: tmpls[0], Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reuseTarget{fmt.Sprintf("benign:%s/%s/1", kind, tmpls[0]), prog, nil})
	}
	return out
}

// reusePolicies are the configurations the reuse tests run under: the
// default LRU hierarchy, FIFO at every level, and Random at every level
// with distinct seeds. Switching between them makes a reused machine
// rebuild its hierarchy.
func reusePolicies() []Config {
	var out []Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		cfg := DefaultConfig()
		h := &cfg.Hierarchy
		for i, c := range []*cache.Config{&h.L1D, &h.L1I, &h.LLC} {
			c.Policy, c.Seed = pol, int64(7+i)
		}
		out = append(out, cfg.withDefaults())
	}
	return out
}

// How a reuse test runs a machine: Run, Run with the event log (whole,
// or capped short of the run so it truncates), or RunEvents with a sink
// that fails, or panics, at its stopAt-th event.
const (
	modeRun = iota
	modeRecord
	modeRecordCapped
	modeSinkFail
	modeSinkPanic
	numModes
)

var errStop = errors.New("sink stops the run")

// runMode runs m in the given mode and returns the sink's error.
func runMode(m *Machine, mode int, stopAt int) (err error) {
	switch mode {
	case modeRun, modeRecord, modeRecordCapped:
		m.Run()
		return nil
	}
	n := 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sink panicked: %v", r)
		}
	}()
	_, err = m.RunEvents(func(Event) error {
		n++
		if n == stopAt {
			if mode == modeSinkPanic {
				panic("sink panics")
			}
			return errStop
		}
		return nil
	})
	return err
}

// modeConfig returns cfg set up for a run in the given mode.
func modeConfig(cfg Config, mode int) Config {
	cfg.RecordEvents = mode == modeRecord || mode == modeRecordCapped
	if mode == modeRecordCapped {
		cfg.MaxEvents = 500
	}
	return cfg
}

// freshMachine builds a machine from scratch, bypassing the free list.
func freshMachine(cfg Config, prog, victim *isa.Program) *Machine {
	var others []*isa.Program
	if victim != nil {
		others = []*isa.Program{victim}
	}
	m := new(Machine)
	m.reset(cfg.withDefaults(), prog, others)
	return m
}

// traceDiff says how got, a reused machine's trace of prog, differs
// from want, a fresh machine's, or returns "" when it does not. Every
// field must be deeply equal, except two: both traces must have a sink
// or neither (function values never compare deeply equal), and the line
// sets are compared through Lines(0, len(prog.Insns)), not their
// storage, which a reused trace keeps from earlier runs.
func traceDiff(prog *isa.Program, got, want *Trace) string {
	if (got.sink == nil) != (want.sink == nil) {
		return fmt.Sprintf("sink set %v, fresh machine's %v", got.sink != nil, want.sink != nil)
	}
	g, w := *got, *want
	g.sink, w.sink = nil, nil
	g.lines, w.lines = lineSet{}, lineSet{}
	if !reflect.DeepEqual(g, w) {
		return "trace differs from a fresh machine's"
	}
	n := len(prog.Insns)
	if !slices.Equal(got.Lines(0, n), want.Lines(0, n)) {
		return "line touches differ from a fresh machine's"
	}
	return ""
}

// sameMachine fails unless got, a reused machine, is in exactly the
// state of want, a fresh one: the configuration, clock, hierarchy
// (lines, clocks, counters, generators, way links, repeat-fetch memo),
// predictor, processes, trace and memory contents.
func sameMachine(t *testing.T, what string, got, want *Machine) {
	t.Helper()
	if !reflect.DeepEqual(got.cfg, want.cfg) || got.cycles != want.cycles || got.fetchHit != want.fetchHit {
		t.Fatalf("%s: configuration or clock differs from a fresh machine's", what)
	}
	if !reflect.DeepEqual(*got.hier, *want.hier) {
		t.Fatalf("%s: hierarchy differs from a fresh machine's", what)
	}
	if !slices.Equal(got.pred.counters, want.pred.counters) || !slices.Equal(got.pred.btb, want.pred.btb) || got.pred.mask != want.pred.mask {
		t.Fatalf("%s: predictor differs from a fresh machine's", what)
	}
	if got.cycles == 0 {
		for _, c := range got.pred.counters {
			if c != 1 {
				t.Fatalf("%s: a direction counter starts at %d, not weakly not-taken", what, c)
			}
		}
	}
	if !reflect.DeepEqual(got.procs, want.procs) {
		t.Fatalf("%s: processes differ from a fresh machine's", what)
	}
	if d := traceDiff(want.trace.prog, got.trace, want.trace); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
	if !reflect.DeepEqual(got.mem.pages, want.mem.pages) {
		t.Fatalf("%s: memory differs from a fresh machine's", what)
	}
	if (got.mem.lastPage == nil) != (want.mem.lastPage == nil) || got.mem.lastPN != want.mem.lastPN ||
		got.mem.lastPage != nil && &got.mem.lastPage[0] != &got.mem.pages[got.mem.lastPN][0] {
		t.Fatalf("%s: last-page memo differs from a fresh machine's", what)
	}
}

// TestReuseLockstep runs the golden corpus under LRU, FIFO and Random
// hierarchies, in every run mode, in shuffled order through one reused
// machine, and each step also through a fresh machine. Right after the
// reset and again after the run, the reused machine must be in exactly
// the fresh machine's state: trace, registers, clock, memory and cache
// state deeply equal. Every other step resets the machine straight from
// the state its run left, without Release, so the reset alone must
// restore everything; the others go through Release and NewMachine,
// which must hand the same machine back.
func TestReuseLockstep(t *testing.T) {
	type step struct {
		tgt  reuseTarget
		cfg  Config
		mode int
	}
	var steps []step
	for _, tgt := range reuseCorpus(t) {
		for _, cfg := range reusePolicies() {
			for mode := 0; mode < numModes; mode++ {
				steps = append(steps, step{tgt, modeConfig(cfg, mode), mode})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })

	var m *Machine
	for i, s := range steps {
		what := fmt.Sprintf("step %d (%s, %s, mode %d)", i, s.tgt.name, s.cfg.Hierarchy.LLC.Policy, s.mode)
		var others []*isa.Program
		if s.tgt.victim != nil {
			others = []*isa.Program{s.tgt.victim}
		}
		switch {
		case m == nil:
			m = freshMachine(s.cfg, s.tgt.prog, s.tgt.victim)
		case i%2 == 0:
			m.reset(s.cfg, s.tgt.prog, others)
		default:
			m.Release()
			next, err := NewMachineMulti(s.cfg, s.tgt.prog, others...)
			if err != nil {
				t.Fatal(err)
			}
			if next != m {
				t.Fatalf("%s: NewMachine after Release did not reuse the released machine", what)
			}
		}
		fresh := freshMachine(s.cfg, s.tgt.prog, s.tgt.victim)
		sameMachine(t, what+" after reset", m, fresh)
		stopAt := 1 + rng.Intn(2000)
		errGot, errWant := runMode(m, s.mode, stopAt), runMode(fresh, s.mode, stopAt)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("%s: run error %v, fresh machine's %v", what, errGot, errWant)
		}
		sameMachine(t, what+" after the run", m, fresh)
	}
}

// TestReleaseBoundsRetention checks what a released machine keeps: at
// most maxFreePages pages, no page map of the run, no event log, sink
// or program, no record slice or slot table longer than maxKeptInsns,
// and no line set of more than maxKeptLines entries. A short run's
// storage is kept, and the next reset empties its line set.
func TestReleaseBoundsRetention(t *testing.T) {
	// A page-strided store touches one page per iteration, and a
	// line-strided one a line.
	b := isa.NewBuilder("stride", 0x1000).
		Mov(isa.R(isa.R1), isa.Imm(0x100_0000)).
		Mov(isa.R(isa.R2), isa.Imm(4*maxFreePages)).
		Label("pages").
		Mov(isa.Mem(isa.R1, 0), isa.R(isa.R2)).
		Add(isa.R(isa.R1), isa.Imm(pageSize)).
		Dec(isa.R(isa.R2)).
		Jne("pages").
		Mov(isa.R(isa.R2), isa.Imm(maxKeptLines+1)).
		Label("lines").
		Mov(isa.Mem(isa.R1, 0), isa.R(isa.R2)).
		Add(isa.R(isa.R1), isa.Imm(64)).
		Dec(isa.R(isa.R2)).
		Jne("lines")
	for i := 0; i < maxKeptInsns; i++ {
		b.Nop() // a program longer than maxKeptInsns
	}
	prog := b.Hlt().MustBuild()
	cfg := DefaultConfig()
	cfg.RecordEvents = true
	m, err := NewMachine(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if m.mem.PageCount() < 4*maxFreePages || len(tr.Events) == 0 || len(tr.lines.touches) <= maxKeptLines {
		t.Fatalf("the run touched %d pages and %d lines and logged %d events; the test needs more",
			m.mem.PageCount(), len(tr.lines.touches), len(tr.Events))
	}
	m.Release()
	if len(m.mem.free) != maxFreePages || len(m.mem.pages) != 0 || m.mem.lastPage != nil {
		t.Errorf("released memory keeps %d free pages and %d mapped ones, memo %v; want %d, 0, nil",
			len(m.mem.free), len(m.mem.pages), m.mem.lastPage != nil, maxFreePages)
	}
	if m.trace.Insns != nil || m.trace.Events != nil || m.trace.sink != nil || m.trace.prog != nil {
		t.Error("released trace keeps its records, event log, sink or program")
	}
	for _, p := range m.procs[:cap(m.procs)] {
		if p.slots != nil || p.prog != nil {
			t.Error("released process keeps an oversized slot table or its program")
		}
	}
	if l := &m.trace.lines; cap(l.touches) > maxKeptLines || cap(l.sorted) > maxKeptLines || len(l.index) > 2*maxKeptLines {
		t.Errorf("released trace keeps a line set of %d entries, %d sorted and %d buckets; bound %d entries",
			cap(l.touches), cap(l.sorted), len(l.index), maxKeptLines)
	}

	// A short run keeps its storage, and the next reset empties its line
	// set.
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	m, err = NewMachine(DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	m.Release()
	if cap(m.trace.Insns) < len(poc.Program.Insns) || cap(m.trace.lines.touches) == 0 {
		t.Error("released machine dropped a short run's record slice or line set")
	}
	next, err := NewMachine(DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Release()
	if next != m {
		t.Fatal("NewMachine after Release did not reuse the released machine")
	}
	l := &next.trace.lines
	if len(l.touches) != 0 || len(l.sorted) != 0 || slices.ContainsFunc(l.index, func(i int32) bool { return i != 0 }) ||
		len(next.trace.Lines(0, len(poc.Program.Insns))) != 0 {
		t.Error("a reset trace's line set is not empty")
	}
}

// TestReleaseTwicePanics: a machine in the free list twice would be
// handed to two callers at once.
func TestReleaseTwicePanics(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	m, err := NewMachine(DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	m.Release()
}

// TestConcurrentReuse runs more goroutines than the free list holds,
// each taking, running and releasing machines for its own programs
// under its own policy, so machines move between goroutines, programs
// and hierarchies. Every trace must equal a fresh machine's. Run it
// under -race.
func TestConcurrentReuse(t *testing.T) {
	corpus := reuseCorpus(t)
	policies := reusePolicies()
	type ref struct {
		tr   *Trace
		regs [isa.NumRegs]uint64
	}
	refs := make([]ref, len(corpus)*len(policies))
	for i := range refs {
		tgt, cfg := corpus[i%len(corpus)], policies[i/len(corpus)]
		m := freshMachine(cfg, tgt.prog, tgt.victim)
		refs[i] = ref{m.Run(), m.procs[0].regs}
	}
	workers := 2*runtime.GOMAXPROCS(0) + 1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				i := (w*7 + round*5) % len(refs)
				tgt, cfg := corpus[i%len(corpus)], policies[i/len(corpus)]
				m, err := NewMachine(cfg, tgt.prog, tgt.victim)
				if err != nil {
					t.Error(err)
					return
				}
				tr := m.Run()
				if traceDiff(tgt.prog, tr, refs[i].tr) != "" || m.procs[0].regs != refs[i].regs {
					t.Errorf("worker %d: %s under %s differs from a fresh run", w, tgt.name, cfg.Hierarchy.LLC.Policy)
				}
				m.Release()
			}
		}(w)
	}
	wg.Wait()
}

// fuzzPoCs are the PoCs FuzzMachineReuse mutates.
var fuzzPoCs = sync.OnceValue(func() []attacks.PoC {
	p := attacks.DefaultParams()
	var out []attacks.PoC
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			panic(err)
		}
		out = append(out, poc)
	}
	return out
})

// fuzzMachine is the machine FuzzMachineReuse reuses across inputs, in
// the order the fuzzer generates them.
var fuzzMachine *Machine

// FuzzMachineReuse runs an internal/mutate variant of a PoC, with or
// without its victim, or the output of the benign generator, under an
// LRU, FIFO or Random hierarchy, in one of the run modes, through one
// machine reused across the fuzzer's inputs and through a fresh machine.
// The trace (every field), the registers, the clock and the memory,
// data segments included, must be deeply equal.
func FuzzMachineReuse(f *testing.F) {
	nPoCs := len(fuzzPoCs())
	for pick := 0; pick < nPoCs+len(benign.Kinds()); pick++ {
		for pol := 0; pol < 3; pol++ {
			f.Add(uint8(pick), int64(pick*3+pol), uint8(pol|(pick%2)<<2|(pick%numModes)<<4))
		}
	}
	policies := reusePolicies()
	f.Fuzz(func(t *testing.T, pick uint8, seed int64, flags uint8) {
		cfg := policies[int(flags&3)%len(policies)]
		cfg.MaxRetired = 100_000
		mode := int(flags>>4) % numModes
		cfg = modeConfig(cfg, mode)
		var prog, victim *isa.Program
		var err error
		if int(pick) < nPoCs {
			poc := fuzzPoCs()[pick]
			mcfg := mutate.LightConfig(seed)
			if flags&8 != 0 {
				mcfg = mutate.ObfuscationConfig(seed)
			}
			if prog, err = mutate.Mutate(poc.Program, mcfg); err != nil {
				t.Skip(err)
			}
			if flags&4 != 0 {
				victim = poc.Victim
			}
		} else {
			kinds := benign.Kinds()
			prog, err = benign.Random(kinds[int(pick)%len(kinds)], rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
		}
		if fuzzMachine != nil {
			fuzzMachine.Release()
			fuzzMachine = nil
		}
		m, err := NewMachine(cfg, prog, victim)
		if err != nil {
			t.Fatal(err)
		}
		fuzzMachine = m
		fresh := freshMachine(cfg, prog, victim)
		stopAt := 1 + int(uint64(seed)%5000)
		if e1, e2 := runMode(m, mode, stopAt), runMode(fresh, mode, stopAt); fmt.Sprint(e1) != fmt.Sprint(e2) {
			t.Fatalf("run error %v, fresh machine's %v", e1, e2)
		}
		if d := traceDiff(prog, m.trace, fresh.trace); d != "" {
			t.Fatal(d)
		}
		for i := range m.procs {
			if m.procs[i].regs != fresh.procs[i].regs {
				t.Fatalf("process %d registers differ from a fresh machine's", i)
			}
		}
		if m.Cycles() != fresh.Cycles() {
			t.Fatalf("cycles %d, fresh machine's %d", m.Cycles(), fresh.Cycles())
		}
		if !reflect.DeepEqual(m.mem.pages, fresh.mem.pages) {
			t.Fatal("memory differs from a fresh machine's")
		}
	})
}
