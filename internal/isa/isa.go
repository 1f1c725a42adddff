// Package isa defines the small x86-flavoured instruction set used by the
// SCAGuard reproduction. Attack proof-of-concepts, victim routines and
// benign programs are all written in this ISA, assembled into Program
// values, and executed by internal/exec on top of the cache simulator.
//
// The ISA deliberately mirrors the subset of x86 that matters to cache
// side-channel analysis: ordinary ALU traffic, loads/stores with
// base+index*scale+disp addressing, conditional branches, CLFLUSH, RDTSCP
// and serializing fences. Every instruction carries a virtual address so
// that control-flow recovery and HPC attribution work exactly as they do
// on real binaries.
package isa

import "fmt"

// Reg identifies a general-purpose register. The machine provides sixteen
// of them (R0..R15); RegNone marks an absent register field in an operand.
type Reg uint8

// General purpose registers. By convention in the builders, R0 is used as
// the primary accumulator, R14 as the stack pointer and R15 as a scratch
// register, but the ISA itself attaches no meaning to any of them.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// RegNone marks "no register" (e.g. a memory operand with no index).
	RegNone Reg = 0xFF
)

// NumRegs is the size of the architectural register file.
const NumRegs = 16

// String returns the conventional assembly name of the register.
func (r Reg) String() string {
	if r == RegNone {
		return "none"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Opcode enumerates every operation the machine can execute.
type Opcode uint8

// The instruction set. MOV covers register moves, loads and stores
// depending on operand kinds; LEA computes an effective address without
// touching memory; CLFLUSH evicts a line from the whole hierarchy;
// RDTSCP reads the virtual cycle counter and serializes like the real
// instruction; LFENCE/MFENCE serialize speculation.
const (
	NOP Opcode = iota
	MOV
	LEA
	ADD
	SUB
	INC
	DEC
	MUL
	XOR
	AND
	OR
	SHL
	SHR
	CMP
	TEST
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB  // unsigned below
	JAE // unsigned above-or-equal
	CALL
	RET
	PUSH
	POP
	CLFLUSH
	RDTSCP
	LFENCE
	MFENCE
	HLT
	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	NOP:     "nop",
	MOV:     "mov",
	LEA:     "lea",
	ADD:     "add",
	SUB:     "sub",
	INC:     "inc",
	DEC:     "dec",
	MUL:     "mul",
	XOR:     "xor",
	AND:     "and",
	OR:      "or",
	SHL:     "shl",
	SHR:     "shr",
	CMP:     "cmp",
	TEST:    "test",
	JMP:     "jmp",
	JE:      "je",
	JNE:     "jne",
	JL:      "jl",
	JLE:     "jle",
	JG:      "jg",
	JGE:     "jge",
	JB:      "jb",
	JAE:     "jae",
	CALL:    "call",
	RET:     "ret",
	PUSH:    "push",
	POP:     "pop",
	CLFLUSH: "clflush",
	RDTSCP:  "rdtscp",
	LFENCE:  "lfence",
	MFENCE:  "mfence",
	HLT:     "hlt",
}

// String returns the mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// IsBranch reports whether op transfers control (conditionally or not).
func (op Opcode) IsBranch() bool {
	switch op {
	case JMP, JE, JNE, JL, JLE, JG, JGE, JB, JAE, CALL, RET:
		return true
	}
	return false
}

// IsCondBranch reports whether op is a conditional branch.
func (op Opcode) IsCondBranch() bool {
	switch op {
	case JE, JNE, JL, JLE, JG, JGE, JB, JAE:
		return true
	}
	return false
}

// IsSerializing reports whether op drains the speculative window, i.e.
// no transient execution can pass it.
func (op Opcode) IsSerializing() bool {
	switch op {
	case LFENCE, MFENCE, RDTSCP, HLT:
		return true
	}
	return false
}

// OperandKind distinguishes the three operand shapes of the ISA.
type OperandKind uint8

// Operand kinds.
const (
	OpNone OperandKind = iota
	OpReg
	OpImm
	OpMem
)

// String names the operand kind.
func (k OperandKind) String() string {
	switch k {
	case OpNone:
		return "none"
	case OpReg:
		return "reg"
	case OpImm:
		return "imm"
	case OpMem:
		return "mem"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Operand is a register, an immediate, or a memory reference of the form
// [Base + Index*Scale + Disp]. For OpImm the immediate lives in Disp.
type Operand struct {
	Kind  OperandKind
	Base  Reg   // OpReg: the register; OpMem: base register (RegNone ok)
	Index Reg   // OpMem only; RegNone if absent
	Scale uint8 // OpMem only; one of 1,2,4,8 (0 treated as 1)
	Disp  int64 // OpImm: the immediate; OpMem: displacement
}

// None is the absent operand.
func None() Operand { return Operand{Kind: OpNone} }

// R wraps a register into an operand.
func R(r Reg) Operand { return Operand{Kind: OpReg, Base: r} }

// Imm wraps an immediate into an operand.
func Imm(v int64) Operand { return Operand{Kind: OpImm, Disp: v} }

// Mem builds a memory operand [base+disp].
func Mem(base Reg, disp int64) Operand {
	return Operand{Kind: OpMem, Base: base, Index: RegNone, Scale: 1, Disp: disp}
}

// MemIdx builds a memory operand [base + index*scale + disp].
func MemIdx(base, index Reg, scale uint8, disp int64) Operand {
	if scale == 0 {
		scale = 1
	}
	return Operand{Kind: OpMem, Base: base, Index: index, Scale: scale, Disp: disp}
}

// MemAbs builds an absolute memory operand [disp].
func MemAbs(addr uint64) Operand {
	return Operand{Kind: OpMem, Base: RegNone, Index: RegNone, Scale: 1, Disp: int64(addr)}
}

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpNone:
		return ""
	case OpReg:
		return o.Base.String()
	case OpImm:
		return fmt.Sprintf("0x%x", uint64(o.Disp))
	case OpMem:
		s := "["
		sep := ""
		if o.Base != RegNone {
			s += o.Base.String()
			sep = "+"
		}
		if o.Index != RegNone {
			s += fmt.Sprintf("%s%s*%d", sep, o.Index, o.Scale)
			sep = "+"
		}
		if o.Disp != 0 || sep == "" {
			if o.Disp < 0 {
				s += fmt.Sprintf("-0x%x", uint64(-o.Disp))
			} else {
				s += fmt.Sprintf("%s0x%x", sep, uint64(o.Disp))
			}
		}
		return s + "]"
	}
	return "?"
}

// Instruction is one decoded instruction at a fixed virtual address.
type Instruction struct {
	Addr uint64  // virtual address of the first byte
	Size uint8   // encoded size in bytes (used to compute fallthrough)
	Op   Opcode  // operation
	Dst  Operand // destination (or only) operand
	Src  Operand // source operand
	// Attack marks builder-provided ground truth: the instruction belongs
	// to a manually identified attack-relevant region. Used only for
	// evaluation (Table IV), never by the detection pipeline itself.
	Attack bool
}

// Next returns the address of the instruction that follows in memory.
func (in Instruction) Next() uint64 { return in.Addr + uint64(in.Size) }

// BranchTarget returns the static branch target and true when the
// instruction is a direct branch/call with an immediate target.
func (in Instruction) BranchTarget() (uint64, bool) {
	if !in.Op.IsBranch() || in.Op == RET {
		return 0, false
	}
	if in.Dst.Kind == OpImm {
		return uint64(in.Dst.Disp), true
	}
	return 0, false
}

// String renders the instruction in assembly syntax (without address).
func (in Instruction) String() string {
	switch {
	case in.Dst.Kind == OpNone:
		return in.Op.String()
	case in.Src.Kind == OpNone:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	default:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src)
	}
}
