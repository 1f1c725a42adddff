package exec

import (
	"slices"
	"testing"

	"repro/internal/hpc"
	"repro/internal/isa"
)

// run executes a program alone with a default machine and returns the
// trace and machine.
func run(t *testing.T, p *isa.Program) (*Trace, *Machine) {
	t.Helper()
	m, err := NewMachine(DefaultConfig(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run(), m
}

func TestMemoryByteAndWord(t *testing.T) {
	m := NewMemory()
	if m.LoadByte(0x123456) != 0 {
		t.Error("untouched memory must read 0")
	}
	m.StoreByte(5, 0xab)
	if m.LoadByte(5) != 0xab {
		t.Error("byte roundtrip failed")
	}
	m.Store64(0xfff_ffa, 0x1122334455667788) // crosses a page boundary
	if got := m.Load64(0xfff_ffa); got != 0x1122334455667788 {
		t.Errorf("cross-page word = %#x", got)
	}
	m.WriteBytes(0x2000, []byte{1, 2, 3})
	if m.LoadByte(0x2002) != 3 {
		t.Error("WriteBytes failed")
	}
	if m.PageCount() == 0 {
		t.Error("pages should have been materialized")
	}
}

func TestPredictorTraining(t *testing.T) {
	var bp BranchPredictor
	bp.init(64, 2)
	pc := uint64(0x100)
	if bp.PredictTaken(pc) {
		t.Error("initial prediction must be not-taken")
	}
	// First taken outcome: misprediction + BTB miss.
	mis, btb := bp.Update(pc, 0, true, 0x200)
	if !mis || !btb {
		t.Errorf("first taken: mis=%v btb=%v", mis, btb)
	}
	// Train to taken.
	bp.Update(pc, 0, true, 0x200)
	if !bp.PredictTaken(pc) {
		t.Error("predictor should now predict taken")
	}
	if e := bp.btb[0]; !e.valid || e.target != 0x200 {
		t.Errorf("BTB = %#x,%v", e.target, e.valid)
	}
	// A not-taken outcome now mispredicts and leaves the BTB alone.
	mis, btb = bp.Update(pc, 0, false, 0)
	if !mis || btb {
		t.Errorf("surprise not-taken: mis=%v btb=%v", mis, btb)
	}
	// The other entry is untouched: an indirect branch there has no
	// prediction yet, then predicts the target it last resolved to.
	if _, had := bp.updateIndirect(1, 0x300); had {
		t.Error("untrained BTB entry predicted a target")
	}
	if got, had := bp.updateIndirect(1, 0x400); !had || got != 0x300 {
		t.Errorf("indirect prediction = %#x,%v, want 0x300,true", got, had)
	}
	if e := bp.btb[0]; e.target != 0x200 {
		t.Errorf("entry 0 = %#x after training entry 1", e.target)
	}
}

// TestBTBEntriesAliasByPC checks the dense BTB numbering: conditional
// and indirect branches get entries, other instructions none, distinct
// PCs of one process distinct entries, and a branch of another process
// at the same PC the same entry (cross-process branch-target injection
// trains through it).
func TestBTBEntriesAliasByPC(t *testing.T) {
	a := isa.NewBuilder("a", 0x1000)
	a.Label("top").
		Mov(isa.R(isa.R0), isa.Imm(0x1000)).
		Cmp(isa.R(isa.R0), isa.Imm(1)).
		Je("top").
		Raw(isa.JMP, isa.R(isa.R0), isa.None()).
		Hlt()
	b := isa.NewBuilder("b", 0x1000)
	b.Label("top").
		Mov(isa.R(isa.R1), isa.Imm(0x1000)).
		Nop().
		Raw(isa.JMP, isa.R(isa.R1), isa.None()).
		Jne("top").
		Hlt()
	m, err := NewMachine(DefaultConfig(), a.MustBuild(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	entries := func(p *proc) []int32 {
		var out []int32
		for _, sl := range p.slots {
			out = append(out, sl.btb)
		}
		return out
	}
	ea, eb := entries(&m.procs[0]), entries(&m.procs[1])
	if ea[2] < 0 || ea[3] < 0 || ea[2] == ea[3] {
		t.Fatalf("process a entries %v: want distinct entries at the two branches", ea)
	}
	for _, i := range []int{0, 1, 4} {
		if ea[i] != noSlot || eb[i] != noSlot {
			t.Fatalf("non-branch slot %d has an entry: a %v, b %v", i, ea, eb)
		}
	}
	if eb[2] != ea[2] || eb[3] != ea[3] {
		t.Fatalf("same-PC branches do not share entries: a %v, b %v", ea, eb)
	}
	if got := len(m.pred.btb); got != 2 {
		t.Fatalf("BTB has %d entries, want 2", got)
	}
}

func TestPredictorSizeRounding(t *testing.T) {
	var bp, bp2 BranchPredictor
	bp.init(0, 0)
	if len(bp.counters) != 512 {
		t.Errorf("default size = %d", len(bp.counters))
	}
	bp2.init(100, 0)
	if len(bp2.counters) != 128 {
		t.Errorf("rounded size = %d", len(bp2.counters))
	}
}

func TestBasicALUAndHalt(t *testing.T) {
	b := isa.NewBuilder("alu", 0x1000)
	b.Mov(isa.R(isa.R0), isa.Imm(6)).
		Mov(isa.R(isa.R1), isa.Imm(7)).
		Mul(isa.R(isa.R0), isa.R(isa.R1)).
		Add(isa.R(isa.R0), isa.Imm(8)).
		Sub(isa.R(isa.R0), isa.Imm(20)).
		Shl(isa.R(isa.R0), isa.Imm(1)).
		Shr(isa.R(isa.R0), isa.Imm(1)).
		Xor(isa.R(isa.R0), isa.Imm(0)).
		Hlt()
	p := b.MustBuild()
	m, err := NewMachine(DefaultConfig(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if !tr.Halted {
		t.Fatal("program did not halt")
	}
	if got := m.procs[0].regs[isa.R0]; got != 30 {
		t.Errorf("r0 = %d, want 30", got)
	}
	if tr.Retired != 9 {
		t.Errorf("retired = %d, want 9", tr.Retired)
	}
}

func TestLoadsAndStores(t *testing.T) {
	b := isa.NewBuilder("mem", 0x1000)
	buf := b.Bytes("buf", 64, false)
	b.Mov(isa.R(isa.R1), isa.Imm(int64(buf))).
		Mov(isa.Mem(isa.R1, 0), isa.Imm(0xdead)).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Hlt()
	p := b.MustBuild()
	m, _ := NewMachine(DefaultConfig(), p, nil)
	tr := m.Run()
	if got := m.procs[0].regs[isa.R0]; got != 0xdead {
		t.Errorf("r0 = %#x", got)
	}
	// The store missed (cold), the load hit in L1.
	g := tr.Global
	if g[hpc.L1DLoadHit] == 0 {
		t.Errorf("expected an L1D load hit, got %+v", g)
	}
	if g[hpc.LLCStoreMiss] == 0 {
		t.Errorf("expected an LLC store miss, got %+v", g)
	}
}

func TestDataSegmentInitialization(t *testing.T) {
	b := isa.NewBuilder("init", 0x1000)
	seg := b.DataInit("d", 16, []byte{0x2a}, false)
	b.Mov(isa.R(isa.R1), isa.Imm(int64(seg))).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Hlt()
	p := b.MustBuild()
	m, _ := NewMachine(DefaultConfig(), p, nil)
	m.Run()
	if got := m.procs[0].regs[isa.R0] & 0xff; got != 0x2a {
		t.Errorf("initialized data read %#x", got)
	}
}

func TestLoopAndConditionals(t *testing.T) {
	// sum 1..10 via JL loop.
	b := isa.NewBuilder("loop", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(0)). // sum
						Mov(isa.R(isa.R1), isa.Imm(1)). // i
						Label("loop").
						Add(isa.R(isa.R0), isa.R(isa.R1)).
						Inc(isa.R(isa.R1)).
						Cmp(isa.R(isa.R1), isa.Imm(11)).
						Jl("loop").
						Hlt()
	p := b.MustBuild()
	m, _ := NewMachine(DefaultConfig(), p, nil)
	tr := m.Run()
	if got := m.procs[0].regs[isa.R0]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	// The loop branch must have mispredicted at least once (exit).
	if tr.Global[hpc.BranchMiss] == 0 {
		t.Error("expected at least one branch miss")
	}
}

func TestAllConditionCodes(t *testing.T) {
	// For (a,b) pairs exercise JE/JNE/JL/JLE/JG/JGE/JB/JAE by counting
	// taken branches into R0 bits.
	cases := []struct {
		a, b int64
		op   func(*isa.Builder, string) *isa.Builder
		want bool
	}{
		{5, 5, (*isa.Builder).Je, true},
		{5, 6, (*isa.Builder).Je, false},
		{5, 6, (*isa.Builder).Jne, true},
		{-1, 1, (*isa.Builder).Jl, true},
		{1, -1, (*isa.Builder).Jl, false},
		{5, 5, (*isa.Builder).Jle, true},
		{7, 5, (*isa.Builder).Jg, true},
		{5, 5, (*isa.Builder).Jg, false},
		{5, 5, (*isa.Builder).Jge, true},
		{-1, 1, (*isa.Builder).Jb, false}, // unsigned: ^uint64(0) is huge
		{1, 2, (*isa.Builder).Jb, true},
		{2, 1, (*isa.Builder).Jae, true},
		{-1, 1, (*isa.Builder).Jae, true},
	}
	for i, c := range cases {
		b := isa.NewBuilder("cond", 0)
		b.Mov(isa.R(isa.R0), isa.Imm(0)).
			Mov(isa.R(isa.R1), isa.Imm(c.a)).
			Cmp(isa.R(isa.R1), isa.Imm(c.b))
		c.op(b, "taken")
		b.Jmp("end").
			Label("taken").
			Mov(isa.R(isa.R0), isa.Imm(1)).
			Label("end").
			Hlt()
		p := b.MustBuild()
		m, _ := NewMachine(DefaultConfig(), p, nil)
		m.Run()
		got := m.procs[0].regs[isa.R0] == 1
		if got != c.want {
			t.Errorf("case %d (%d vs %d): taken=%v want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestCallRetPushPop(t *testing.T) {
	b := isa.NewBuilder("call", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(1)).
		Push(isa.Imm(99)).
		Call("fn").
		Pop(isa.R(isa.R2)).
		Hlt().
		Label("fn").
		Mov(isa.R(isa.R0), isa.Imm(42)).
		Ret()
	p := b.MustBuild()
	m, _ := NewMachine(DefaultConfig(), p, nil)
	tr := m.Run()
	if !tr.Halted {
		t.Fatal("did not halt (call/ret broken)")
	}
	if m.procs[0].regs[isa.R0] != 42 {
		t.Errorf("r0 = %d", m.procs[0].regs[isa.R0])
	}
	if m.procs[0].regs[isa.R2] != 99 {
		t.Errorf("r2 = %d (push/pop broken)", m.procs[0].regs[isa.R2])
	}
	if m.procs[0].regs[isa.R14] != stackTop {
		t.Errorf("stack pointer leaked: %#x", m.procs[0].regs[isa.R14])
	}
}

func TestLeaDoesNotTouchMemory(t *testing.T) {
	b := isa.NewBuilder("lea", 0)
	b.Mov(isa.R(isa.R1), isa.Imm(0x4000)).
		Lea(isa.R0, isa.MemIdx(isa.R1, isa.R1, 2, 8)).
		Hlt()
	p := b.MustBuild()
	tr, m := run(t, p)
	if got := m.procs[0].regs[isa.R0]; got != 0x4000+0x8000+8 {
		t.Errorf("lea = %#x", got)
	}
	// No data-cache events may have fired.
	g := tr.Global
	if g[hpc.L1DLoadHit]+g[hpc.L1DLoadMiss] != 0 {
		t.Errorf("lea touched the data cache: %+v", g)
	}
}

func TestRdtscpAdvances(t *testing.T) {
	b := isa.NewBuilder("tsc", 0)
	b.Rdtscp(isa.R0).
		Mov(isa.R(isa.R2), isa.Mem(isa.R5, int64(0x40000))). // slow miss
		Rdtscp(isa.R1).
		Hlt()
	p := b.MustBuild()
	tr, m := run(t, p)
	t0, t1 := m.procs[0].regs[isa.R0], m.procs[0].regs[isa.R1]
	if t1 <= t0 {
		t.Errorf("time did not advance: %d .. %d", t0, t1)
	}
	if t1-t0 < 100 {
		t.Errorf("memory miss cost only %d cycles", t1-t0)
	}
	if tr.Global[hpc.Timestamp] != 2 {
		t.Errorf("timestamp events = %d", tr.Global[hpc.Timestamp])
	}
}

func TestClflushTracksFlushedLines(t *testing.T) {
	b := isa.NewBuilder("fl", 0)
	buf := b.Bytes("buf", 64, false)
	b.Mov(isa.R(isa.R1), isa.Imm(int64(buf))).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Label("theflush").
		Clflush(isa.Mem(isa.R1, 0)).
		Hlt()
	p := b.MustBuild()
	tr, m := run(t, p)
	if m.Hierarchy().Cached(buf) {
		t.Error("line survived clflush")
	}
	flushPC := p.Labels["theflush"]
	rec := recordAt(tr, flushPC)
	slot, _ := p.IndexOf(flushPC)
	flushes := 0
	for _, lt := range tr.Lines(slot, slot+1) {
		if lt.Flush {
			flushes++
		}
	}
	if rec == nil || flushes != 1 {
		t.Fatalf("flush not recorded: %+v, %d flushed lines", rec, flushes)
	}
	lines := memLinesOf(tr, flushPC)
	if len(lines) != 1 || lines[0] != buf&^63 {
		t.Errorf("MemLinesOf(flush) = %v", lines)
	}
}

func TestTraceFirstCycleAndExecCount(t *testing.T) {
	b := isa.NewBuilder("tc", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(3)).
		Label("loop").
		Dec(isa.R(isa.R0)).
		Jne("loop").
		Hlt()
	p := b.MustBuild()
	tr, _ := run(t, p)
	loopPC := p.Labels["loop"]
	rec := recordAt(tr, loopPC)
	if rec == nil || rec.ExecCount != 3 {
		t.Fatalf("loop exec count = %+v", rec)
	}
	first := recordAt(tr, p.Entry)
	if first == nil || first.FirstCycle > rec.FirstCycle {
		t.Error("first-cycle ordering wrong")
	}
}

func TestMaxRetiredBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetired = 100
	b := isa.NewBuilder("inf", 0)
	b.Label("spin").Jmp("spin")
	p := b.MustBuild()
	m, _ := NewMachine(cfg, p, nil)
	tr := m.Run()
	if tr.Halted {
		t.Error("infinite loop cannot halt")
	}
	if tr.Retired < 100 || tr.Retired > 100+uint64(cfg.Quantum) {
		t.Errorf("retired = %d", tr.Retired)
	}
}

func TestFallingOffProgramHalts(t *testing.T) {
	b := isa.NewBuilder("off", 0)
	b.Nop() // no HLT: execution falls off the end
	p := b.MustBuild()
	m, _ := NewMachine(DefaultConfig(), p, nil)
	tr := m.Run()
	if tr.Retired != 1 {
		t.Errorf("retired = %d", tr.Retired)
	}
}

func TestNilMonitoredProgram(t *testing.T) {
	if _, err := NewMachine(DefaultConfig(), nil, nil); err == nil {
		t.Error("nil program must fail")
	}
}

func TestVictimInterleaving(t *testing.T) {
	// Victim writes a flag the attacker polls; proves both processes run
	// in one address space with shared memory.
	flagAddr := uint64(0x30000000)

	vb := isa.NewBuilder("victim", 0x800000)
	vb.Mov(isa.R(isa.R1), isa.Imm(int64(flagAddr))).
		Mov(isa.Mem(isa.R1, 0), isa.Imm(7)).
		Label("spin").
		Jmp("spin")
	victim := vb.MustBuild()

	ab := isa.NewBuilder("attacker", 0x400000)
	ab.Mov(isa.R(isa.R1), isa.Imm(int64(flagAddr))).
		Label("poll").
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Cmp(isa.R(isa.R0), isa.Imm(7)).
		Jne("poll").
		Hlt()
	attacker := ab.MustBuild()

	m, err := NewMachine(DefaultConfig(), attacker, victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if !tr.Halted {
		t.Fatal("attacker never saw the victim's write")
	}
}

// The flagship test: a full Flush+Reload attack recovers the victim's
// secret-dependent access pattern through timing alone.
func TestFlushReloadRecoversSecret(t *testing.T) {
	const (
		lineSize  = 64
		numLines  = 16
		secret    = 11
		threshold = 100
	)
	sharedBase := uint64(0x20000000)

	// Victim: repeatedly touches shared[secret*lineSize].
	vb := isa.NewBuilder("victim", 0x800000)
	vb.Mov(isa.R(isa.R1), isa.Imm(int64(sharedBase+secret*lineSize))).
		Label("loop").
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Jmp("loop")
	victim := vb.MustBuild()

	// Attacker: for each line: flush, wait (spin), time a reload, store
	// latency to a results array.
	resBase := uint64(0x28000000)
	ab := isa.NewBuilder("attacker", 0x400000)
	ab.Mov(isa.R(isa.R2), isa.Imm(0)) // line index
	ab.Label("lines")
	// flush line: r1 = sharedBase + r2*lineSize
	ab.Mov(isa.R(isa.R1), isa.R(isa.R2)).
		Shl(isa.R(isa.R1), isa.Imm(6)).
		Add(isa.R(isa.R1), isa.Imm(int64(sharedBase))).
		Clflush(isa.Mem(isa.R1, 0))
	// wait loop to give the victim time to run
	ab.Mov(isa.R(isa.R3), isa.Imm(40)).
		Label("wait").
		Dec(isa.R(isa.R3)).
		Jne("wait")
	// timed reload
	ab.Rdtscp(isa.R4).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Rdtscp(isa.R5).
		Sub(isa.R(isa.R5), isa.R(isa.R4)).
		Lea(isa.R6, isa.MemIdx(isa.RegNone, isa.R2, 8, int64(resBase))).
		Mov(isa.Mem(isa.R6, 0), isa.R(isa.R5))
	// next line
	ab.Inc(isa.R(isa.R2)).
		Cmp(isa.R(isa.R2), isa.Imm(numLines)).
		Jl("lines").
		Hlt()
	attacker := ab.MustBuild()

	m, err := NewMachine(DefaultConfig(), attacker, victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if !tr.Halted {
		t.Fatal("attacker did not finish")
	}
	// Read the latency table back out of memory and recover the secret.
	best, bestLat := -1, uint64(1<<62)
	for i := 0; i < numLines; i++ {
		lat := m.Memory().Load64(resBase + uint64(i*8))
		if lat < bestLat {
			best, bestLat = i, lat
		}
	}
	if best != secret {
		t.Errorf("flush+reload recovered line %d (lat=%d), want %d", best, bestLat, secret)
	}
	if bestLat >= threshold {
		t.Errorf("fastest reload (%d cycles) not below threshold", bestLat)
	}
}

// Spectre v1: a bounds check is trained, then an out-of-bounds index
// leaks through a transient secret-dependent load into the probe array.
func TestSpectreTransientLeak(t *testing.T) {
	const (
		arraySize = 16
		secret    = 5 // value stored out of bounds
	)
	b := isa.NewBuilder("spectre", 0x400000)
	arr := b.Bytes("arr", arraySize*8, false)
	// secretAddr lives right past the array.
	secretAddr := arr + arraySize*8
	probe := b.Bytes("probe", 64*64, false) // 64 lines
	sizeVar := b.Bytes("size", 8, false)

	// size = arraySize (in elements), loaded from memory every time so
	// the comparison is slow enough to speculate past.
	b.Mov(isa.R(isa.R9), isa.Imm(int64(sizeVar))).
		Mov(isa.Mem(isa.R9, 0), isa.Imm(arraySize))

	// Gadget: if (x < size) y = probe[arr[x]*64]
	gadget := func(trainIdx int64) {
		b.Mov(isa.R(isa.R1), isa.Imm(trainIdx)). // x
								Mov(isa.R(isa.R2), isa.Mem(isa.R9, 0)). // size (memory load)
								Cmp(isa.R(isa.R1), isa.R(isa.R2)).
								Jae("skip" + fmtInt(trainIdx))
		b.Mov(isa.R(isa.R3), isa.MemIdx(isa.RegNone, isa.R1, 8, int64(arr))). // arr[x]
											And(isa.R(isa.R3), isa.Imm(63)).
											Shl(isa.R(isa.R3), isa.Imm(6)).                                       // *64
											Mov(isa.R(isa.R4), isa.MemIdx(isa.RegNone, isa.R3, 1, int64(probe))). // probe[...]
											Label("skip" + fmtInt(trainIdx))
	}
	// Train in-bounds 8 times (x=0..7), flush size + probe, then attack
	// with x = arraySize (out of bounds -> reads secretAddr).
	for i := int64(0); i < 8; i++ {
		gadget(i)
	}
	// Flush the probe array and size so speculation has time to run.
	for i := int64(0); i < 64; i++ {
		b.Clflush(isa.MemAbs(probe + uint64(i*64)))
	}
	b.Clflush(isa.Mem(isa.R9, 0))
	gadget(arraySize) // out-of-bounds transient access
	b.Hlt()
	p := b.MustBuild()

	m, err := NewMachine(DefaultConfig(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plant the secret just past the array.
	m.Memory().Store64(secretAddr, secret)
	tr := m.Run()
	if tr.Transient == 0 {
		t.Fatal("no transient instructions executed; Spectre impossible")
	}
	// The probe line for the secret must now be cached although it was
	// flushed and never architecturally accessed after the flush.
	leakLine := probe + secret*64
	if !m.Hierarchy().Cached(leakLine) {
		t.Error("secret-dependent probe line not cached: no transient leak")
	}
	// And competing lines must not all be cached.
	cachedCount := 0
	for i := uint64(0); i < 64; i++ {
		if m.Hierarchy().Cached(probe + i*64) {
			cachedCount++
		}
	}
	if cachedCount > 8 {
		t.Errorf("%d probe lines cached; leak not selective", cachedCount)
	}
}

func fmtInt(i int64) string {
	return string(rune('a' + i%26))
}

func TestSpeculationDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpecWindow = 0
	b := isa.NewBuilder("nospec", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(1)).
		Cmp(isa.R(isa.R0), isa.Imm(2)).
		Jl("x").
		Label("x").
		Hlt()
	p := b.MustBuild()
	m, _ := NewMachine(cfg, p, nil)
	tr := m.Run()
	if tr.Transient != 0 {
		t.Error("speculation must be off")
	}
}

func TestIndirectJump(t *testing.T) {
	b := isa.NewBuilder("ind", 0x100)
	b.Mov(isa.R(isa.R0), isa.Imm(0)). // placeholder, patched below
						Jmp("set")
	b.Label("target").
		Mov(isa.R(isa.R1), isa.Imm(123)).
		Hlt()
	b.Label("set").
		Mov(isa.R(isa.R0), isa.Imm(int64(b.PC()))). // dummy to learn addr
		Hlt()
	p := b.MustBuild()
	// Build a cleaner version: jump through a register.
	b2 := isa.NewBuilder("ind2", 0x100)
	b2.Mov(isa.R(isa.R0), isa.Imm(int64(0x100+3*4))). // address of "target"
								Raw(isa.JMP, isa.R(isa.R0), isa.None()).
								Nop(). // skipped
								Mov(isa.R(isa.R1), isa.Imm(55)).
								Hlt()
	p2 := b2.MustBuild()
	m, _ := NewMachine(DefaultConfig(), p2, nil)
	m.Run()
	if m.procs[0].regs[isa.R1] != 55 {
		t.Errorf("indirect jump failed, r1=%d", m.procs[0].regs[isa.R1])
	}
	_ = p
}

// TestFireDropsInvalidEvent: an event past the Table I range counts
// nowhere, neither per instruction nor globally, and is not logged.
func TestFireDropsInvalidEvent(t *testing.T) {
	tr := newTrace(isa.NewBuilder("one", 0).Hlt().MustBuild(), true, 0)
	tr.fire(hpc.Event(200), 0, 0)
	tr.fire(hpc.NumEvents, 0, 0)
	if tr.Global.Total() != 0 || tr.Insns[0].HPC.Total() != 0 || len(tr.Events) != 0 {
		t.Fatal("an invalid event was counted")
	}
}

func TestMemLinesOfMissingPC(t *testing.T) {
	tr := newTrace(isa.NewBuilder("empty", 0).Hlt().MustBuild(), false, 0)
	if got := memLinesOf(tr, 0x123); got != nil {
		t.Errorf("MemLinesOf missing = %v", got)
	}
}

// memLinesOf returns the sorted accessed (and flushed) line addresses of
// the instruction at pc. Flushed lines are included because the paper's
// overlap analysis collects "accessed memory addresses (including
// flushed addresses)".
func memLinesOf(t *Trace, pc uint64) []uint64 {
	if recordAt(t, pc) == nil {
		return nil
	}
	i, _ := t.prog.IndexOf(pc)
	lines := t.Lines(i, i+1)
	out := make([]uint64, 0, len(lines))
	for _, lt := range lines {
		out = append(out, lt.Line)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// recordAt returns the record of the instruction at pc, or nil when pc
// is no instruction of the traced program or the instruction was never
// seen.
func recordAt(t *Trace, pc uint64) *InsnRecord {
	i, ok := t.prog.IndexOf(pc)
	if !ok || !t.Insns[i].Seen {
		return nil
	}
	return &t.Insns[i]
}
