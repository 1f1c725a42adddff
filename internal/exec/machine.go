// Package exec executes ISA programs on top of the cache simulator,
// standing in for the paper's real-hardware data collection (perf HPC
// sampling + Intel PT address tracing). A Machine interleaves up to two
// processes — the monitored program and an optional victim — over one
// shared cache hierarchy, models a 2-bit branch predictor with a bounded
// speculative window (enough for Spectre v1 transient leakage), and
// produces a Trace: HPC events attributed per instruction address,
// accessed/flushed cache lines per instruction, first-execution
// timestamps, a chronological cache-set trace and windowed HPC samples.
package exec

import (
	"fmt"

	"repro/internal/cache"
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
	// WindowWidth is the HPC sampling window in cycles.
	WindowWidth uint64
	// MaxSetTrace caps the cache-set trace (Trace.SetTrace), the
	// chronological LLC-set log only the SCADET baseline reads. 0 selects
	// DefaultMaxSetTrace; a positive value caps the log at that many
	// entries; a negative value records no set trace at all, for callers
	// whose trace never reaches a set-trace consumer.
	MaxSetTrace int
	// RecordEvents enables the chronological event log (Trace.Events),
	// the replayable record the sliding-window detector consumes. Off by
	// default: the log costs memory proportional to trace activity.
	RecordEvents bool
	// MaxEvents caps the event log length (0 = DefaultMaxEvents). On
	// overflow recording stops and Trace.EventsTruncated is set.
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
	DefaultMaxRetired  = 2_000_000
	DefaultQuantum     = 32
	DefaultSpecWindow  = 48
	DefaultMaxSetTrace = 1 << 20
	DefaultMaxEvents   = 1 << 22
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
	if c.MaxSetTrace == 0 {
		c.MaxSetTrace = DefaultMaxSetTrace
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

// slot is one pre-decoded instruction. Control flow moves between slot
// numbers (positions in the program's Insns), never through an address
// lookup: next and target are resolved once, when the machine is built.
type slot struct {
	in     *isa.Instruction
	next   int32 // slot at in.Next(); -1 when no instruction starts there
	target int32 // slot of the static target of a direct JMP/CALL or Jcc; -1 otherwise
}

// noSlot marks an address where no instruction starts: executing it
// halts the process (it fell off its program).
const noSlot = -1

// code is one process's program decoded into slots.
type code struct {
	prog  *isa.Program
	slots []slot
}

// decode builds the slot table of a validated program.
func decode(prog *isa.Program) code {
	c := code{prog: prog, slots: make([]slot, len(prog.Insns))}
	for i := range prog.Insns {
		in := &prog.Insns[i]
		s := slot{in: in, next: noSlot, target: noSlot}
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
	pred   *BranchPredictor
	procs  []*proc
	cycles uint64
	trace  *Trace
}

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
func NewMachineMulti(cfg Config, monitored *isa.Program, others ...*isa.Program) (*Machine, error) {
	cfg = cfg.withDefaults()
	if monitored == nil {
		return nil, fmt.Errorf("exec: monitored program is nil")
	}
	hier, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:  cfg,
		mem:  NewMemory(),
		hier: hier,
		pred: NewBranchPredictor(cfg.PredictorSize),
	}
	progs := []*isa.Program{monitored}
	for _, o := range others {
		if o == nil {
			return nil, fmt.Errorf("exec: nil co-running program")
		}
		progs = append(progs, o)
	}
	for i, pr := range progs {
		if err := pr.Validate(); err != nil {
			return nil, err
		}
		for _, d := range pr.Data {
			if len(d.Init) > 0 {
				m.mem.WriteBytes(d.Addr, d.Init)
			}
		}
		p := &proc{code: decode(pr), owner: cache.Owner(i)}
		p.slot = p.slotAt(pr.Entry)
		p.regs[isa.R14] = uint64(stackTop - i*stackGap)
		m.procs = append(m.procs, p)
	}
	pcs := make([]uint64, len(monitored.Insns))
	for i := range monitored.Insns {
		pcs[i] = monitored.Insns[i].Addr
	}
	m.trace = newTrace(pcs, cfg.WindowWidth, cfg.MaxSetTrace, cfg.RecordEvents, cfg.MaxEvents)
	return m, nil
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
// trace. Run may be called once per Machine.
func (m *Machine) Run() *Trace {
	mon := m.procs[0]
	for !mon.halted && mon.retired < m.cfg.MaxRetired {
		progress := false
		for i, p := range m.procs {
			if p.halted {
				continue
			}
			for q := 0; q < m.cfg.Quantum && !p.halted; q++ {
				m.step(p, i == 0)
				progress = true
				if i == 0 && (p.halted || p.retired >= m.cfg.MaxRetired) {
					break
				}
			}
			if mon.halted || mon.retired >= m.cfg.MaxRetired {
				break
			}
		}
		if !progress {
			break
		}
	}
	m.trace.Halted = mon.halted
	m.trace.finish(m.cycles)
	return m.trace
}

// ea computes an effective address from a memory operand and a register
// file.
func ea(op isa.Operand, regs *[isa.NumRegs]uint64) uint64 {
	var a uint64
	if op.Base != isa.RegNone {
		a += regs[op.Base]
	}
	if op.Index != isa.RegNone {
		s := uint64(op.Scale)
		if s == 0 {
			s = 1
		}
		a += regs[op.Index] * s
	}
	return a + uint64(op.Disp)
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
		m.traceLine(s, addr, SetRead)
	}
	return m.mem.Load64(addr)
}

// traceLine records a monitored data access of addr by the instruction
// in slot s: the line in the instruction's record and the cache-set
// trace entry.
func (m *Machine) traceLine(s int32, addr uint64, kind SetAccessKind) {
	llc := m.hier.LLC()
	line := llc.LineAddr(addr)
	if kind == SetFlush {
		m.trace.flushLine(s, line, m.cycles)
	} else {
		m.trace.memLine(s, line, m.cycles)
	}
	m.trace.setAccess(m.cycles, llc.SetIndex(addr), line, kind, s)
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
		m.traceLine(s, addr, SetWrite)
	}
	m.mem.Store64(addr, val)
}

// readOperand evaluates a source operand architecturally.
func (m *Machine) readOperand(p *proc, s int32, op isa.Operand, monitored bool) uint64 {
	switch op.Kind {
	case isa.OpReg:
		return p.regs[op.Base]
	case isa.OpImm:
		return uint64(op.Disp)
	case isa.OpMem:
		return m.load(p, s, ea(op, &p.regs), monitored)
	}
	return 0
}

// writeOperand writes an architectural destination operand.
func (m *Machine) writeOperand(p *proc, s int32, op isa.Operand, val uint64, monitored bool) {
	switch op.Kind {
	case isa.OpReg:
		p.regs[op.Base] = val
	case isa.OpMem:
		m.store(p, s, ea(op, &p.regs), val, monitored)
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
	in := sl.in
	pc := in.Addr

	// Instruction fetch through the I-cache.
	fres := m.hier.Access(pc, cache.Fetch, p.owner)
	m.cycles += fres.Latency / 4 // fetch overlaps with execution
	m.fireAccessEvents(fres, cur, monitored)

	m.cycles++ // base execution cost
	next := sl.next

	switch in.Op {
	case isa.NOP, isa.LFENCE, isa.MFENCE:
		// no architectural effect

	case isa.HLT:
		p.halted = true

	case isa.MOV:
		v := m.readOperand(p, cur, in.Src, monitored)
		m.writeOperand(p, cur, in.Dst, v, monitored)

	case isa.LEA:
		p.regs[in.Dst.Base] = ea(in.Src, &p.regs)

	case isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
		a := m.readOperand(p, cur, in.Dst, monitored)
		b := m.readOperand(p, cur, in.Src, monitored)
		r := alu(in.Op, a, b)
		m.writeOperand(p, cur, in.Dst, r, monitored)
		setResultFlags(&p.fl, r)

	case isa.INC, isa.DEC:
		a := m.readOperand(p, cur, in.Dst, monitored)
		r := alu(in.Op, a, 0)
		m.writeOperand(p, cur, in.Dst, r, monitored)
		setResultFlags(&p.fl, r)

	case isa.CMP:
		a := m.readOperand(p, cur, in.Dst, monitored)
		b := m.readOperand(p, cur, in.Src, monitored)
		p.fl.zf = a == b
		p.fl.lt = int64(a) < int64(b)
		p.fl.below = a < b

	case isa.TEST:
		a := m.readOperand(p, cur, in.Dst, monitored)
		b := m.readOperand(p, cur, in.Src, monitored)
		setResultFlags(&p.fl, a&b)

	case isa.PUSH:
		v := m.readOperand(p, cur, in.Dst, monitored)
		p.regs[isa.R14] -= 8
		m.store(p, cur, p.regs[isa.R14], v, monitored)

	case isa.POP:
		v := m.load(p, cur, p.regs[isa.R14], monitored)
		p.regs[isa.R14] += 8
		m.writeOperand(p, cur, in.Dst, v, monitored)

	case isa.CLFLUSH:
		addr := ea(in.Dst, &p.regs)
		lat, wasCached := m.hier.Flush(addr)
		m.cycles += lat
		if monitored {
			m.traceLine(cur, addr, SetFlush)
			if wasCached {
				// The forced eviction reaches memory (writeback path);
				// HPCs observe it as a cache miss, which is what makes
				// flush-phase blocks visible to the modeling pipeline.
				m.trace.fire(hpc.CacheMiss, cur, m.cycles)
			}
		}

	case isa.RDTSCP:
		p.regs[in.Dst.Base] = m.cycles
		if monitored {
			m.trace.fire(hpc.Timestamp, cur, m.cycles)
		}

	case isa.JMP:
		if in.Dst.Kind == isa.OpImm {
			next = sl.target
		} else {
			// Indirect jump: the front end fetches from the BTB's stale
			// target until the real one resolves — the Spectre-v2
			// branch-target-injection window.
			actual := m.readOperand(p, cur, in.Dst, monitored)
			predicted, had := m.pred.UpdateIndirect(pc, actual)
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
		m.store(p, cur, p.regs[isa.R14], in.Next(), monitored)
		if in.Dst.Kind == isa.OpImm {
			next = sl.target
		} else {
			next = p.slotAt(p.regs[in.Dst.Base])
		}

	case isa.RET:
		next = p.slotAt(m.load(p, cur, p.regs[isa.R14], monitored))
		p.regs[isa.R14] += 8

	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JAE:
		taken := evalCond(in.Op, p.fl)
		target := uint64(in.Dst.Disp)
		predictedTaken := m.pred.PredictTaken(pc)
		mispredicted, btbMiss := m.pred.Update(pc, taken, target)
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
		m.trace.tickWindows(m.cycles)
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
		in := sl.in
		if in.Op.IsSerializing() {
			return
		}
		next := sl.next
		read := func(op isa.Operand) uint64 {
			switch op.Kind {
			case isa.OpReg:
				return regs[op.Base]
			case isa.OpImm:
				return uint64(op.Disp)
			case isa.OpMem:
				return m.specLoad(p, cur, ea(op, &regs), monitored)
			}
			return 0
		}
		switch in.Op {
		case isa.NOP:
		case isa.MOV:
			if in.Dst.Kind == isa.OpReg {
				regs[in.Dst.Base] = read(in.Src)
			}
			// Transient stores stay in the store buffer: no effect.
		case isa.LEA:
			regs[in.Dst.Base] = ea(in.Src, &regs)
		case isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
			if in.Dst.Kind == isa.OpReg {
				r := alu(in.Op, regs[in.Dst.Base], read(in.Src))
				regs[in.Dst.Base] = r
				setResultFlags(&fl, r)
			}
		case isa.INC, isa.DEC:
			if in.Dst.Kind == isa.OpReg {
				r := alu(in.Op, regs[in.Dst.Base], 0)
				regs[in.Dst.Base] = r
				setResultFlags(&fl, r)
			}
		case isa.CMP:
			a, b := read(in.Dst), read(in.Src)
			fl.zf, fl.lt, fl.below = a == b, int64(a) < int64(b), a < b
		case isa.TEST:
			setResultFlags(&fl, read(in.Dst)&read(in.Src))
		case isa.JMP:
			if in.Dst.Kind == isa.OpImm {
				next = sl.target
			} else {
				next = p.slotAt(regs[in.Dst.Base])
			}
		case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JAE:
			if evalCond(in.Op, fl) {
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

// specLoad performs a transient load for the instruction in slot s.
func (m *Machine) specLoad(p *proc, s int32, addr uint64, monitored bool) uint64 {
	res := m.hier.Access(addr, cache.Load, p.owner)
	m.cycles += res.Latency / 2 // overlapped with recovery
	m.fireAccessEvents(res, s, monitored)
	if monitored {
		m.traceLine(s, addr, SetRead)
	}
	return m.mem.Load64(addr)
}
