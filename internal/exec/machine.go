// Package exec executes ISA programs on top of the cache simulator,
// standing in for the paper's real-hardware data collection (perf HPC
// sampling + Intel PT address tracing). A Machine interleaves up to two
// processes — the monitored program and an optional victim — over one
// shared cache hierarchy, models a 2-bit branch predictor with a bounded
// speculative window (enough for Spectre v1 transient leakage), and
// produces a Trace: one record per instruction of the monitored
// program, in program order, holding its HPC events and first-execution
// timestamp, the cache lines each instruction accessed or flushed, and,
// on request, the chronological event log — or, through RunEvents,
// those events handed to a caller's sink as they happen.
//
// Building a machine is a large share of a short run's cost, so
// machines are reused: Machine.Release gives one back to a package-level
// free list of at most GOMAXPROCS machines, and NewMachine and
// NewMachineMulti take one from it when they can, reset to exactly the
// state a machine built from scratch has. A caller that never releases
// its machine gets a new one every time, as before.
package exec

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/freelist"
	"repro/internal/hpc"
	"repro/internal/isa"
)

// Config tunes a Machine.
type Config struct {
	Hierarchy cache.HierarchyConfig
	// MaxRetired bounds the number of instructions the monitored process
	// may retire (0 means DefaultMaxRetired).
	MaxRetired uint64
	// Quantum is the round-robin scheduling quantum in instructions.
	Quantum int
	// SpecWindow is the transient-execution window in instructions;
	// 0 disables speculation entirely.
	SpecWindow int
	// RecordEvents enables the chronological event log (Trace.Events),
	// the replayable record window.Replay consumes. Off by default: the
	// log costs memory proportional to trace activity. A consumer that
	// needs each event only once takes them from Machine.RunEvents
	// instead, which keeps no log.
	RecordEvents bool
	// MaxEvents caps the event log length (0 = DefaultMaxEvents). On
	// overflow recording stops and Trace.EventsTruncated is set. It
	// does not apply to RunEvents.
	MaxEvents int
	// PredictorSize is the direction-predictor table size.
	PredictorSize int
	// Protected lists address ranges an architectural data access may
	// not touch: a retired load or store inside one faults (halting the
	// process), but a transient load passes through — the Meltdown-type
	// behavior where the permission check lags the data read.
	Protected []AddrRange
}

// AddrRange is a half-open address interval [Base, Base+Size).
type AddrRange struct {
	Base, Size uint64
}

// Contains reports whether addr falls in the range.
func (r AddrRange) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// Defaults for Config zero fields.
const (
	DefaultMaxRetired = 2_000_000
	DefaultQuantum    = 32
	DefaultSpecWindow = 48
	DefaultMaxEvents  = 1 << 22
)

// DefaultConfig returns the configuration used throughout the
// reproduction.
func DefaultConfig() Config {
	return Config{
		Hierarchy:  cache.DefaultHierarchyConfig(),
		MaxRetired: DefaultMaxRetired,
		Quantum:    DefaultQuantum,
		SpecWindow: DefaultSpecWindow,
	}
}

func (c Config) withDefaults() Config {
	if c.Hierarchy.L1D.Sets == 0 {
		c.Hierarchy = cache.DefaultHierarchyConfig()
	}
	if c.MaxRetired == 0 {
		c.MaxRetired = DefaultMaxRetired
	}
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	return c
}

// flags is the condition state left by the last flag-setting instruction.
type flags struct {
	zf    bool // zero
	lt    bool // signed less-than
	below bool // unsigned below
}

// operand is one instruction operand, resolved at decode.
type operand struct {
	kind  isa.OperandKind
	base  isa.Reg // OpReg: the register; OpMem: the base (RegNone ok)
	index isa.Reg // OpMem: the index register (RegNone ok)
	scale uint8   // OpMem: the index scale, 0 normalized to 1
	disp  uint64  // OpImm: the immediate; OpMem: the displacement
}

func decodeOperand(op isa.Operand) operand {
	d := operand{kind: op.Kind, base: op.Base, index: op.Index, scale: op.Scale, disp: uint64(op.Disp)}
	if d.scale == 0 {
		d.scale = 1
	}
	return d
}

// ea computes the effective address of a memory operand against a
// register file.
func (op *operand) ea(regs *[isa.NumRegs]uint64) uint64 {
	a := op.disp
	if op.base != isa.RegNone {
		a += regs[op.base]
	}
	if op.index != isa.RegNone {
		a += regs[op.index] * uint64(op.scale)
	}
	return a
}

// slot is one pre-decoded instruction: opcode and operands copied out
// of the isa.Instruction, and control flow resolved to slot numbers
// (positions in the program's Insns) once, when the machine is built,
// so execution never goes through an address lookup for a static edge.
type slot struct {
	pc       uint64
	dst, src operand
	next     int32 // slot at the fallthrough address; -1 when no instruction starts there
	target   int32 // slot of the static target of a direct JMP/CALL or Jcc; -1 otherwise
	btb      int32 // BTB entry of a conditional or indirect branch; -1 otherwise
	op       isa.Opcode
	size     uint8
}

// noSlot marks an address where no instruction starts: executing it
// halts the process (it fell off its program).
const noSlot = -1

// code is one process's program decoded into slots.
type code struct {
	prog  *isa.Program
	slots []slot
}

// decode builds the slot table of a validated program into the storage
// of slots. It leaves the BTB entries to assignBTB.
func decode(prog *isa.Program, slots []slot) code {
	c := code{prog: prog, slots: resize(slots, len(prog.Insns))}
	for i := range prog.Insns {
		in := &prog.Insns[i]
		s := slot{
			pc: in.Addr, op: in.Op, size: in.Size,
			dst: decodeOperand(in.Dst), src: decodeOperand(in.Src),
			next: noSlot, target: noSlot, btb: noSlot,
		}
		// Instructions are sorted and non-overlapping, so the only
		// candidate at in.Next() is the following one.
		if i+1 < len(prog.Insns) && prog.Insns[i+1].Addr == in.Next() {
			s.next = int32(i + 1)
		}
		if in.Op.IsCondBranch() || ((in.Op == isa.JMP || in.Op == isa.CALL) && in.Dst.Kind == isa.OpImm) {
			s.target = c.slotAt(uint64(in.Dst.Disp))
		}
		c.slots[i] = s
	}
	return c
}

// slotAt resolves a runtime address (an indirect branch target, a
// return address, a BTB prediction) to its slot.
func (c code) slotAt(addr uint64) int32 {
	if i, ok := c.prog.IndexOf(addr); ok {
		return int32(i)
	}
	return noSlot
}

// assignBTB gives every BTB branch of every process a dense BTB entry.
// Branches of different processes at one PC share their entry: the BTB
// aliases by PC across processes, which is what cross-process
// branch-target injection (the Spectre-BTB PoC) trains. It returns the
// number of entries.
func assignBTB(procs []proc) int {
	n := int32(0)
	for i := range procs {
		p := &procs[i]
		for s := range p.slots {
			sl := &p.slots[s]
			if !sl.op.IsCondBranch() && (sl.op != isa.JMP || sl.dst.kind == isa.OpImm) {
				continue // only conditional and indirect branches use the BTB
			}
			for q := range procs[:i] {
				if j, ok := procs[q].prog.IndexOf(sl.pc); ok && procs[q].slots[j].btb != noSlot {
					sl.btb = procs[q].slots[j].btb
					break
				}
			}
			if sl.btb == noSlot {
				sl.btb = n
				n++
			}
		}
	}
	return int(n)
}

// proc is one running process.
type proc struct {
	code
	regs    [isa.NumRegs]uint64
	fl      flags
	slot    int32 // slot of the next instruction to retire
	halted  bool
	owner   cache.Owner
	retired uint64
}

// stack placement: each process gets a disjoint 1 MiB stack.
const stackTop = 0x7f00_0000
const stackGap = 0x0010_0000

// Machine executes one monitored process and an optional victim over a
// shared cache hierarchy.
type Machine struct {
	cfg    Config
	mem    *Memory
	hier   *cache.Hierarchy
	pred   BranchPredictor
	procs  []proc
	cycles uint64
	trace  *Trace
	// fetchHit is the cycle cost of a fetch that hits in the L1I.
	fetchHit uint64
	// released marks a machine in the free list.
	released bool
}

// machines is the free list Release gives machines back to and
// NewMachineMulti takes them from.
var machines freelist.List[*Machine]

// maxKeptInsns bounds the record slice and the slot tables a released
// machine keeps for reuse, in instructions; a program longer than that
// leaves none behind.
const maxKeptInsns = 1 << 12

// NewMachine builds a machine running the monitored program and an
// optional victim (nil for none). Data segments of both programs are
// materialized in memory before execution.
func NewMachine(cfg Config, monitored *isa.Program, victim *isa.Program) (*Machine, error) {
	if victim == nil {
		return NewMachineMulti(cfg, monitored)
	}
	return NewMachineMulti(cfg, monitored, victim)
}

// NewMachineMulti builds a machine with any number of co-running
// processes besides the monitored one — victims, and noisy co-tenants
// for robustness experiments. All processes share the cache hierarchy;
// only the first (monitored) one is traced.
//
// The machine comes from the free list when it holds one (see Release),
// and is otherwise built from scratch; the two are indistinguishable.
func NewMachineMulti(cfg Config, monitored *isa.Program, others ...*isa.Program) (*Machine, error) {
	cfg = cfg.withDefaults()
	if monitored == nil {
		return nil, fmt.Errorf("exec: monitored program is nil")
	}
	if err := cfg.Hierarchy.Validate(); err != nil {
		return nil, err
	}
	for _, o := range others {
		if o == nil {
			return nil, fmt.Errorf("exec: nil co-running program")
		}
	}
	if err := monitored.Validate(); err != nil {
		return nil, err
	}
	for _, o := range others {
		if err := o.Validate(); err != nil {
			return nil, err
		}
	}
	m, ok := machines.Get()
	if !ok {
		m = new(Machine)
	}
	m.reset(cfg, monitored, others)
	return m, nil
}

// reset readies m, new or used, to run monitored and others under cfg,
// a configuration with defaults applied whose hierarchy and programs
// are valid. It leaves exactly the state of a machine built from
// scratch, whatever m's last run did: finished, stopped by its sink,
// cancelled or panicked. Only storage is reused — the hierarchy when
// its configuration is unchanged, the pages, and the capacity of the
// record slice, the slot tables, the predictor tables and the process
// list.
func (m *Machine) reset(cfg Config, monitored *isa.Program, others []*isa.Program) {
	m.cfg = cfg
	m.cycles = 0
	m.released = false
	m.fetchHit = cfg.Hierarchy.Lat.L1Hit / 4 // fetch overlaps with execution
	if m.hier != nil && m.hier.Config() == cfg.Hierarchy {
		m.hier.Reset()
	} else {
		hier, err := cache.NewHierarchy(cfg.Hierarchy)
		if err != nil {
			panic(err) // the caller validated the configuration
		}
		m.hier = hier
	}
	if m.mem == nil {
		m.mem = NewMemory()
	}
	m.mem.recycle()
	n := 1 + len(others)
	if cap(m.procs) < n {
		m.procs = append(m.procs[:cap(m.procs)], make([]proc, n-cap(m.procs))...)
	}
	m.procs = m.procs[:n]
	for i := range m.procs {
		pr := monitored
		if i > 0 {
			pr = others[i-1]
		}
		for _, d := range pr.Data {
			if len(d.Init) > 0 {
				m.mem.WriteBytes(d.Addr, d.Init)
			}
		}
		p := &m.procs[i]
		*p = proc{code: decode(pr, p.slots), owner: cache.Owner(i)}
		p.slot = p.slotAt(pr.Entry)
		p.regs[isa.R14] = uint64(stackTop - i*stackGap)
	}
	m.pred.init(cfg.PredictorSize, assignBTB(m.procs))
	if m.trace == nil {
		m.trace = new(Trace)
	}
	m.trace.reset(monitored, cfg.RecordEvents, cfg.MaxEvents)
}

// trim bounds what a released machine retains: its pages go back to the
// memory's free list (up to maxFreePages of them); the event log, the
// sink and the programs are dropped; and so is a record slice or slot
// table longer than maxKeptInsns, or a line set of more than
// maxKeptLines entries.
func (m *Machine) trim() {
	m.mem.recycle()
	t := m.trace
	if cap(t.Insns) > maxKeptInsns {
		t.Insns = nil
	}
	t.lines.trim()
	t.Events, t.sink, t.prog = nil, nil, nil
	procs := m.procs[:cap(m.procs)]
	for i := range procs {
		procs[i].prog = nil
		if cap(procs[i].slots) > maxKeptInsns {
			procs[i].slots = nil
		}
	}
}

// Release gives m back for a later NewMachine or NewMachineMulti to
// reuse. After Release, m, the Trace its run returned and its Memory
// are invalid: the next machine built may be m, and it reuses all
// three. A caller that keeps the trace does not release the machine.
// What a released machine keeps is bounded: at most maxFreePages
// pages, a record slice and slot tables of at most maxKeptInsns
// instructions, and a line set of at most maxKeptLines entries.
// Release may be called after any run, or none — finished, stopped by
// its sink, cancelled or panicked — because the machine is reset when
// it is taken, not here; here it only drops what it must not retain
// (see trim). Releasing a machine twice is a bug and panics.
func (m *Machine) Release() {
	if m.released {
		panic("exec: Machine released twice")
	}
	m.released = true
	m.trim()
	machines.Put(m)
}

// resize returns s resized to n zeroed elements, reusing its storage
// when it has the capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Hierarchy exposes the shared cache hierarchy (tests, occupancy checks).
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Memory exposes physical memory (tests, victim secret setup).
func (m *Machine) Memory() *Memory { return m.mem }

// Cycles returns the current virtual time.
func (m *Machine) Cycles() uint64 { return m.cycles }

// RegisterOfMonitored returns the architectural value of a register of
// the monitored process; useful for result inspection after Run.
func (m *Machine) RegisterOfMonitored(r isa.Reg) uint64 {
	if !r.Valid() {
		return 0
	}
	return m.procs[0].regs[r]
}

// Run interleaves the processes round-robin until the monitored process
// halts or its retired-instruction budget is exhausted, then returns the
// trace. Run or RunEvents may be called once per Machine, that is once
// per NewMachine or NewMachineMulti. The trace stays valid until the
// machine is released.
func (m *Machine) Run() *Trace {
	m.run()
	return m.trace
}

// RunEvents runs the machine like Run, but hands every event of the
// monitored process to sink as it happens instead of logging it: the
// returned trace has no Events whatever Config.RecordEvents says, and
// MaxEvents does not apply. Once sink returns an error, no further
// event is delivered and the run stops at the next step boundary; the
// error is returned with the trace as it stood then.
func (m *Machine) RunEvents(sink func(Event) error) (*Trace, error) {
	m.trace.setSink(sink)
	m.run()
	return m.trace, m.trace.sinkErr
}

func (m *Machine) run() {
	mon := &m.procs[0]
	for !m.done() {
		progress := false
		for i := range m.procs {
			p := &m.procs[i]
			if p.halted {
				continue
			}
			for q := 0; q < m.cfg.Quantum && !p.halted; q++ {
				m.step(p, i == 0)
				progress = true
				if i == 0 && m.done() {
					break
				}
			}
			if m.done() {
				break
			}
		}
		if !progress {
			break
		}
	}
	m.trace.Halted = mon.halted
	m.trace.Cycles = m.cycles
	m.trace.lines.sort(len(m.trace.Insns))
	// The run is over: the trace keeps no reference to the sink.
	m.trace.recordEvents, m.trace.sink = false, nil
}

// done reports whether the monitored process halted, exhausted its
// retired-instruction budget or had its event sink fail.
func (m *Machine) done() bool {
	mon := &m.procs[0]
	return mon.halted || mon.retired >= m.cfg.MaxRetired || m.trace.sinkErr != nil
}

// fireAccessEvents converts one cache access result into HPC events
// attributed to the instruction in slot s.
func (m *Machine) fireAccessEvents(res cache.AccessResult, s int32, monitored bool) {
	if !monitored {
		return
	}
	t := m.trace
	cyc := m.cycles
	switch res.Kind {
	case cache.Load:
		if res.L1Hit {
			t.fire(hpc.L1DLoadHit, s, cyc)
			return
		}
		t.fire(hpc.L1DLoadMiss, s, cyc)
		if res.LLCHit {
			t.fire(hpc.LLCLoadHit, s, cyc)
		} else {
			t.fire(hpc.LLCLoadMiss, s, cyc)
			t.fire(hpc.CacheMiss, s, cyc)
		}
	case cache.Store:
		if res.L1Hit {
			t.fire(hpc.L1DStoreHit, s, cyc)
			return
		}
		if res.LLCHit {
			t.fire(hpc.LLCStoreHit, s, cyc)
		} else {
			t.fire(hpc.LLCStoreMiss, s, cyc)
			t.fire(hpc.CacheMiss, s, cyc)
		}
	case cache.Fetch:
		if !res.L1Hit {
			t.fire(hpc.L1ILoadMiss, s, cyc)
			if !res.LLCHit {
				t.fire(hpc.CacheMiss, s, cyc)
			}
		}
	}
}

// protectedAt reports whether an architectural access to addr faults.
func (m *Machine) protectedAt(addr uint64) bool {
	for _, r := range m.cfg.Protected {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

// load performs an architectural data load for the instruction in slot
// s.
func (m *Machine) load(p *proc, s int32, addr uint64, monitored bool) uint64 {
	if m.protectedAt(addr) {
		// Permission fault: the access never completes architecturally.
		p.halted = true
		return 0
	}
	res := m.hier.Access(addr, cache.Load, p.owner)
	m.cycles += res.Latency
	m.fireAccessEvents(res, s, monitored)
	if monitored {
		m.traceLine(s, addr, false)
	}
	return m.mem.Load64(addr)
}

// traceLine records a monitored data access, or a flush, of addr by
// the instruction in slot s in that instruction's record.
func (m *Machine) traceLine(s int32, addr uint64, flush bool) {
	line := m.hier.LLC().LineAddr(addr)
	if flush {
		m.trace.flushLine(s, line, m.cycles)
	} else {
		m.trace.memLine(s, line, m.cycles)
	}
}

// store performs an architectural data store for the instruction in
// slot s.
func (m *Machine) store(p *proc, s int32, addr, val uint64, monitored bool) {
	if m.protectedAt(addr) {
		p.halted = true
		return
	}
	res := m.hier.Access(addr, cache.Store, p.owner)
	m.cycles += res.Latency
	m.fireAccessEvents(res, s, monitored)
	if monitored {
		m.traceLine(s, addr, false)
	}
	m.mem.Store64(addr, val)
}

// readOperand evaluates a source operand architecturally. It is small
// enough to inline: only a memory operand costs a call.
func (m *Machine) readOperand(p *proc, s int32, op *operand, monitored bool) uint64 {
	if op.kind == isa.OpReg {
		return p.regs[op.base]
	}
	return m.readOther(p, s, op, monitored)
}

func (m *Machine) readOther(p *proc, s int32, op *operand, monitored bool) uint64 {
	switch op.kind {
	case isa.OpImm:
		return op.disp
	case isa.OpMem:
		return m.load(p, s, op.ea(&p.regs), monitored)
	}
	return 0
}

// writeOperand writes an architectural destination operand. Like
// readOperand it inlines, calling out only for a memory operand.
func (m *Machine) writeOperand(p *proc, s int32, op *operand, val uint64, monitored bool) {
	if op.kind == isa.OpReg {
		p.regs[op.base] = val
	} else {
		m.writeOther(p, s, op, val, monitored)
	}
}

func (m *Machine) writeOther(p *proc, s int32, op *operand, val uint64, monitored bool) {
	if op.kind == isa.OpMem {
		m.store(p, s, op.ea(&p.regs), val, monitored)
	}
}

func alu(op isa.Opcode, a, b uint64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.XOR:
		return a ^ b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.SHL:
		return a << (b & 63)
	case isa.SHR:
		return a >> (b & 63)
	case isa.INC:
		return a + 1
	case isa.DEC:
		return a - 1
	}
	return a
}

func setResultFlags(fl *flags, res uint64) {
	fl.zf = res == 0
	fl.lt = int64(res) < 0
	fl.below = false
}

func evalCond(op isa.Opcode, fl flags) bool {
	switch op {
	case isa.JE:
		return fl.zf
	case isa.JNE:
		return !fl.zf
	case isa.JL:
		return fl.lt
	case isa.JLE:
		return fl.lt || fl.zf
	case isa.JG:
		return !fl.lt && !fl.zf
	case isa.JGE:
		return !fl.lt
	case isa.JB:
		return fl.below
	case isa.JAE:
		return !fl.below
	}
	return false
}

// step retires one instruction of p.
func (m *Machine) step(p *proc, monitored bool) {
	cur := p.slot
	if cur == noSlot {
		// Fell off the program (fault): halt.
		p.halted = true
		return
	}
	sl := &p.slots[cur]
	pc := sl.pc

	// Instruction fetch through the I-cache. A fetch that hits in the
	// L1I fires no event.
	if m.hier.Refetch(pc, p.owner) {
		m.cycles += m.fetchHit
	} else {
		fres := m.hier.Access(pc, cache.Fetch, p.owner)
		m.cycles += fres.Latency / 4 // fetch overlaps with execution
		if !fres.L1Hit {
			m.fireAccessEvents(fres, cur, monitored)
		}
	}

	m.cycles++ // base execution cost
	next := sl.next

	switch sl.op {
	case isa.NOP, isa.LFENCE, isa.MFENCE:
		// no architectural effect

	case isa.HLT:
		p.halted = true

	case isa.MOV:
		v := m.readOperand(p, cur, &sl.src, monitored)
		m.writeOperand(p, cur, &sl.dst, v, monitored)

	case isa.LEA:
		p.regs[sl.dst.base] = sl.src.ea(&p.regs)

	case isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
		a := m.readOperand(p, cur, &sl.dst, monitored)
		b := m.readOperand(p, cur, &sl.src, monitored)
		r := alu(sl.op, a, b)
		m.writeOperand(p, cur, &sl.dst, r, monitored)
		setResultFlags(&p.fl, r)

	case isa.INC, isa.DEC:
		a := m.readOperand(p, cur, &sl.dst, monitored)
		r := alu(sl.op, a, 0)
		m.writeOperand(p, cur, &sl.dst, r, monitored)
		setResultFlags(&p.fl, r)

	case isa.CMP:
		a := m.readOperand(p, cur, &sl.dst, monitored)
		b := m.readOperand(p, cur, &sl.src, monitored)
		p.fl.zf = a == b
		p.fl.lt = int64(a) < int64(b)
		p.fl.below = a < b

	case isa.TEST:
		a := m.readOperand(p, cur, &sl.dst, monitored)
		b := m.readOperand(p, cur, &sl.src, monitored)
		setResultFlags(&p.fl, a&b)

	case isa.PUSH:
		v := m.readOperand(p, cur, &sl.dst, monitored)
		p.regs[isa.R14] -= 8
		m.store(p, cur, p.regs[isa.R14], v, monitored)

	case isa.POP:
		v := m.load(p, cur, p.regs[isa.R14], monitored)
		p.regs[isa.R14] += 8
		m.writeOperand(p, cur, &sl.dst, v, monitored)

	case isa.CLFLUSH:
		addr := sl.dst.ea(&p.regs)
		lat, wasCached := m.hier.Flush(addr)
		m.cycles += lat
		if monitored {
			m.traceLine(cur, addr, true)
			if wasCached {
				// The forced eviction reaches memory (writeback path);
				// HPCs observe it as a cache miss, which is what makes
				// flush-phase blocks visible to the modeling pipeline.
				m.trace.fire(hpc.CacheMiss, cur, m.cycles)
			}
		}

	case isa.RDTSCP:
		p.regs[sl.dst.base] = m.cycles
		if monitored {
			m.trace.fire(hpc.Timestamp, cur, m.cycles)
		}

	case isa.JMP:
		if sl.dst.kind == isa.OpImm {
			next = sl.target
		} else {
			// Indirect jump: the front end fetches from the BTB's stale
			// target until the real one resolves — the Spectre-v2
			// branch-target-injection window.
			actual := m.readOperand(p, cur, &sl.dst, monitored)
			predicted, had := m.pred.updateIndirect(int(sl.btb), actual)
			if !had {
				if monitored {
					m.trace.fire(hpc.BranchLoadMiss, cur, m.cycles)
				}
			} else if predicted != actual {
				if monitored {
					m.trace.fire(hpc.BranchMiss, cur, m.cycles)
				}
				m.cycles += 15
				if m.cfg.SpecWindow > 0 {
					m.speculate(p, p.slotAt(predicted), monitored)
				}
			}
			next = p.slotAt(actual)
		}

	case isa.CALL:
		p.regs[isa.R14] -= 8
		m.store(p, cur, p.regs[isa.R14], pc+uint64(sl.size), monitored)
		if sl.dst.kind == isa.OpImm {
			next = sl.target
		} else {
			next = p.slotAt(p.regs[sl.dst.base])
		}

	case isa.RET:
		next = p.slotAt(m.load(p, cur, p.regs[isa.R14], monitored))
		p.regs[isa.R14] += 8

	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JAE:
		taken := evalCond(sl.op, p.fl)
		predictedTaken := m.pred.PredictTaken(pc)
		mispredicted, btbMiss := m.pred.Update(pc, int(sl.btb), taken, sl.dst.disp)
		if monitored {
			if mispredicted {
				m.trace.fire(hpc.BranchMiss, cur, m.cycles)
			}
			if btbMiss {
				m.trace.fire(hpc.BranchLoadMiss, cur, m.cycles)
			}
		}

		if mispredicted {
			m.cycles += 15 // misprediction penalty
			if m.cfg.SpecWindow > 0 {
				// The transient path is the one the predictor chose.
				wrong := sl.next
				if predictedTaken {
					wrong = sl.target
				}
				m.speculate(p, wrong, monitored)
			}
		}
		if taken {
			next = sl.target
		}
	}

	p.slot = next
	p.retired++
	if monitored {
		m.trace.retire(cur, m.cycles)
	}
}

// speculate executes the transient wrong path from slot start: loads
// touch the cache for real (the Spectre leak) but stores, flushes and
// architectural state are squashed. Events observed transiently are
// attributed to the transient instruction addresses, mirroring how HPCs
// count speculative cache traffic on real parts.
func (m *Machine) speculate(p *proc, start int32, monitored bool) {
	regs := p.regs // copy of the architectural register file
	fl := p.fl
	cur := start
	for i := 0; i < m.cfg.SpecWindow; i++ {
		if cur == noSlot {
			return
		}
		sl := &p.slots[cur]
		if sl.op.IsSerializing() {
			return
		}
		next := sl.next
		switch sl.op {
		case isa.NOP:
		case isa.MOV:
			if sl.dst.kind == isa.OpReg {
				regs[sl.dst.base] = m.specRead(p, cur, &regs, &sl.src, monitored)
			}
			// Transient stores stay in the store buffer: no effect.
		case isa.LEA:
			regs[sl.dst.base] = sl.src.ea(&regs)
		case isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
			if sl.dst.kind == isa.OpReg {
				r := alu(sl.op, regs[sl.dst.base], m.specRead(p, cur, &regs, &sl.src, monitored))
				regs[sl.dst.base] = r
				setResultFlags(&fl, r)
			}
		case isa.INC, isa.DEC:
			if sl.dst.kind == isa.OpReg {
				r := alu(sl.op, regs[sl.dst.base], 0)
				regs[sl.dst.base] = r
				setResultFlags(&fl, r)
			}
		case isa.CMP:
			a := m.specRead(p, cur, &regs, &sl.dst, monitored)
			b := m.specRead(p, cur, &regs, &sl.src, monitored)
			fl.zf, fl.lt, fl.below = a == b, int64(a) < int64(b), a < b
		case isa.TEST:
			a := m.specRead(p, cur, &regs, &sl.dst, monitored)
			setResultFlags(&fl, a&m.specRead(p, cur, &regs, &sl.src, monitored))
		case isa.JMP:
			if sl.dst.kind == isa.OpImm {
				next = sl.target
			} else {
				next = p.slotAt(regs[sl.dst.base])
			}
		case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JAE:
			if evalCond(sl.op, fl) {
				next = sl.target
			}
		case isa.CALL, isa.RET, isa.PUSH, isa.POP, isa.CLFLUSH:
			// Squash-side-effect-heavy ops end the transient window here.
			return
		case isa.HLT:
			return
		}
		if monitored {
			m.trace.Transient++
		}
		cur = next
	}
}

// specRead evaluates a source operand of the transient instruction in
// slot s against the transient register file regs.
func (m *Machine) specRead(p *proc, s int32, regs *[isa.NumRegs]uint64, op *operand, monitored bool) uint64 {
	switch op.kind {
	case isa.OpReg:
		return regs[op.base]
	case isa.OpImm:
		return op.disp
	case isa.OpMem:
		return m.specLoad(p, s, op.ea(regs), monitored)
	}
	return 0
}

// specLoad performs a transient load for the instruction in slot s.
func (m *Machine) specLoad(p *proc, s int32, addr uint64, monitored bool) uint64 {
	res := m.hier.Access(addr, cache.Load, p.owner)
	m.cycles += res.Latency / 2 // overlapped with recovery
	m.fireAccessEvents(res, s, monitored)
	if monitored {
		m.traceLine(s, addr, false)
	}
	return m.mem.Load64(addr)
}
