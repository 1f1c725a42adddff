package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	if got := R3.String(); got != "r3" {
		t.Errorf("R3.String() = %q, want r3", got)
	}
	if got := RegNone.String(); got != "none" {
		t.Errorf("RegNone.String() = %q, want none", got)
	}
	if !R15.Valid() || RegNone.Valid() || Reg(16).Valid() {
		t.Error("Reg.Valid misclassifies")
	}
}

func TestOpcodeString(t *testing.T) {
	cases := map[Opcode]string{
		NOP: "nop", MOV: "mov", CLFLUSH: "clflush", RDTSCP: "rdtscp",
		JAE: "jae", HLT: "hlt", MFENCE: "mfence",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if got := Opcode(200).String(); !strings.HasPrefix(got, "op(") {
		t.Errorf("invalid opcode string = %q", got)
	}
}

func TestOpcodeClassification(t *testing.T) {
	branches := []Opcode{JMP, JE, JNE, JL, JLE, JG, JGE, JB, JAE, CALL, RET}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	nonBranches := []Opcode{MOV, ADD, CLFLUSH, RDTSCP, NOP, HLT}
	for _, op := range nonBranches {
		if op.IsBranch() {
			t.Errorf("%s should not be a branch", op)
		}
	}
	conds := []Opcode{JE, JNE, JL, JLE, JG, JGE, JB, JAE}
	for _, op := range conds {
		if !op.IsCondBranch() {
			t.Errorf("%s should be conditional", op)
		}
	}
	if JMP.IsCondBranch() || CALL.IsCondBranch() || RET.IsCondBranch() {
		t.Error("JMP/CALL/RET are not conditional branches")
	}
	for _, op := range []Opcode{LFENCE, MFENCE, RDTSCP, HLT} {
		if !op.IsSerializing() {
			t.Errorf("%s should serialize", op)
		}
	}
	if MOV.IsSerializing() || JMP.IsSerializing() {
		t.Error("MOV/JMP must not serialize")
	}
}

func TestOperandConstructors(t *testing.T) {
	r := R(R5)
	if r.Kind != OpReg || r.Base != R5 {
		t.Errorf("R(R5) = %+v", r)
	}
	im := Imm(-7)
	if im.Kind != OpImm || im.Disp != -7 {
		t.Errorf("Imm(-7) = %+v", im)
	}
	m := Mem(R2, 16)
	if m.Kind != OpMem || m.Base != R2 || m.Index != RegNone || m.Disp != 16 || m.Scale != 1 {
		t.Errorf("Mem(R2,16) = %+v", m)
	}
	mi := MemIdx(R1, R2, 8, -4)
	if mi.Index != R2 || mi.Scale != 8 || mi.Disp != -4 {
		t.Errorf("MemIdx = %+v", mi)
	}
	if MemIdx(R1, R2, 0, 0).Scale != 1 {
		t.Error("scale 0 should default to 1")
	}
	ab := MemAbs(0x1000)
	if ab.Base != RegNone || ab.Disp != 0x1000 {
		t.Errorf("MemAbs = %+v", ab)
	}
	if !m.IsMem() || r.IsMem() || im.IsMem() {
		t.Error("IsMem misclassifies")
	}
}

func TestOperandString(t *testing.T) {
	cases := []struct {
		op   Operand
		want string
	}{
		{R(R0), "r0"},
		{Imm(255), "0xff"},
		{Mem(R1, 0), "[r1]"},
		{Mem(R1, 8), "[r1+0x8]"},
		{Mem(R1, -8), "[r1-0x8]"},
		{MemIdx(R1, R2, 4, 0), "[r1+r2*4]"},
		{MemAbs(0x2000), "[0x2000]"},
		{None(), ""},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.op, got, c.want)
		}
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{Op: MOV, Dst: R(R0), Src: Mem(R1, 4)}
	if got := in.String(); got != "mov r0, [r1+0x4]" {
		t.Errorf("String() = %q", got)
	}
	in2 := Instruction{Op: RET}
	if got := in2.String(); got != "ret" {
		t.Errorf("String() = %q", got)
	}
	in3 := Instruction{Op: CLFLUSH, Dst: Mem(R3, 0)}
	if got := in3.String(); got != "clflush [r3]" {
		t.Errorf("String() = %q", got)
	}
}

func TestBranchTarget(t *testing.T) {
	j := Instruction{Op: JNE, Dst: Imm(0x500)}
	if tgt, ok := j.BranchTarget(); !ok || tgt != 0x500 {
		t.Errorf("BranchTarget = %x,%v", tgt, ok)
	}
	if _, ok := (Instruction{Op: RET}).BranchTarget(); ok {
		t.Error("RET has no static target")
	}
	if _, ok := (Instruction{Op: MOV, Dst: R(R0), Src: Imm(1)}).BranchTarget(); ok {
		t.Error("MOV has no branch target")
	}
	// Indirect jump: register destination has no static target.
	if _, ok := (Instruction{Op: JMP, Dst: R(R1)}).BranchTarget(); ok {
		t.Error("indirect JMP has no static target")
	}
}

func TestMemOperands(t *testing.T) {
	in := Instruction{Op: MOV, Dst: Mem(R1, 0), Src: R(R0)}
	if got := in.MemOperands(); len(got) != 1 || got[0].Base != R1 {
		t.Errorf("MemOperands = %+v", got)
	}
	in2 := Instruction{Op: MOV, Dst: R(R0), Src: R(R1)}
	if got := in2.MemOperands(); len(got) != 0 {
		t.Errorf("MemOperands = %+v, want empty", got)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: MOV, Dst: Mem(R5, -0x18), Src: R(R0)}, "mov mem, reg"},
		{Instruction{Op: MOV, Dst: R(R0), Src: Imm(42)}, "mov reg, imm"},
		{Instruction{Op: ADD, Dst: R(R1), Src: R(R2)}, "add reg, reg"},
		{Instruction{Op: CLFLUSH, Dst: Mem(R1, 0)}, "clflush mem"},
		{Instruction{Op: JNE, Dst: Imm(0x400)}, "jne imm"},
		{Instruction{Op: RET}, "ret"},
		{Instruction{Op: RDTSCP, Dst: R(R0)}, "rdtscp reg"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%s) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Normalization must erase exactly the details rules (1)-(3) say it
// erases: two instructions differing only in registers, immediates or
// addresses normalize identically.
func TestNormalizeErasesConcreteValues(t *testing.T) {
	f := func(rA, rB uint8, immA, immB int64, dispA, dispB int32) bool {
		a := Instruction{Op: MOV, Dst: R(Reg(rA % NumRegs)), Src: MemIdx(Reg(rB%NumRegs), Reg(rA%NumRegs), 4, int64(dispA))}
		b := Instruction{Op: MOV, Dst: R(Reg(rB % NumRegs)), Src: Mem(Reg(rA%NumRegs), int64(dispB))}
		if Normalize(a) != Normalize(b) {
			return false
		}
		c := Instruction{Op: ADD, Dst: R(R1), Src: Imm(immA)}
		d := Instruction{Op: ADD, Dst: R(R9), Src: Imm(immB)}
		return Normalize(c) == Normalize(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeSeqAndKey(t *testing.T) {
	ins := []Instruction{
		{Op: MOV, Dst: R(R0), Src: Imm(1)},
		{Op: CLFLUSH, Dst: Mem(R1, 0)},
	}
	seq := NormalizeSeq(ins)
	if len(seq) != 2 || seq[0] != "mov reg, imm" || seq[1] != "clflush mem" {
		t.Errorf("NormalizeSeq = %v", seq)
	}
	if got := NormalizedKey(ins); got != "mov reg, imm; clflush mem" {
		t.Errorf("NormalizedKey = %q", got)
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("t", 0x1000)
	buf := b.Bytes("buf", 128, false)
	if buf != DefaultDataBase {
		t.Errorf("first data at %#x, want %#x", buf, uint64(DefaultDataBase))
	}
	b.Label("start").
		Mov(R(R0), Imm(0)).
		Label("loop").
		Mov(R(R1), Mem(R0, int64(buf))).
		Inc(R(R0)).
		Cmp(R(R0), Imm(16)).
		Jl("loop").
		Hlt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x1000 {
		t.Errorf("entry = %#x", p.Entry)
	}
	if len(p.Insns) != 6 {
		t.Fatalf("got %d insns", len(p.Insns))
	}
	// The Jl must point back at the "loop" label.
	jl := p.Insns[4]
	tgt, ok := jl.BranchTarget()
	if !ok {
		t.Fatal("jl has no target")
	}
	if want := p.Labels["loop"]; tgt != want {
		t.Errorf("jl target %#x, want %#x", tgt, want)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder("fwd", 0)
	b.Jmp("end").Nop().Label("end").Hlt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tgt, _ := p.Insns[0].BranchTarget()
	if want := p.Labels["end"]; tgt != want {
		t.Errorf("forward jump to %#x, want %#x", tgt, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("dup", 0)
	b.Label("a").Label("a").Hlt()
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label must fail")
	}

	b2 := NewBuilder("undef", 0)
	b2.Jmp("nowhere").Hlt()
	if _, err := b2.Build(); err == nil {
		t.Error("undefined label must fail")
	}

	b3 := NewBuilder("empty", 0)
	if _, err := b3.Build(); err == nil {
		t.Error("empty program must fail")
	}

	b4 := NewBuilder("badentry", 0)
	b4.Hlt().Entry("missing")
	if _, err := b4.Build(); err == nil {
		t.Error("missing entry label must fail")
	}

	b5 := NewBuilder("dupdata", 0)
	b5.Bytes("d", 8, false)
	b5.Bytes("d", 8, false)
	b5.Hlt()
	if _, err := b5.Build(); err == nil {
		t.Error("duplicate data segment must fail")
	}

	b6 := NewBuilder("zerodata", 0)
	b6.Bytes("z", 0, false)
	b6.Hlt()
	if _, err := b6.Build(); err == nil {
		t.Error("zero-size data segment must fail")
	}
}

func TestBuilderAttackMarking(t *testing.T) {
	b := NewBuilder("mark", 0)
	b.Nop().
		BeginAttack().
		Clflush(Mem(R0, 0)).
		Rdtscp(R1).
		EndAttack().
		Hlt()
	p := b.MustBuild()
	marked := p.AttackAddrs()
	if len(marked) != 2 {
		t.Fatalf("marked %d insns, want 2", len(marked))
	}
	if in, _ := p.At(marked[0]); in.Op != CLFLUSH {
		t.Errorf("first marked = %s", in.Op)
	}
}

func TestBuilderDataSegments(t *testing.T) {
	b := NewBuilder("data", 0)
	a1 := b.Bytes("a", 100, true)
	a2 := b.DataInit("b", 8, []byte{1, 2, 3}, false)
	b.Hlt()
	p := b.MustBuild()
	if a2 <= a1 {
		t.Error("segments must be laid out upward")
	}
	if a2%64 != 0 {
		t.Errorf("segment b at %#x not line-aligned", a2)
	}
	seg, ok := p.Segment("a")
	if !ok || !seg.Shared || seg.Size != 100 {
		t.Errorf("segment a = %+v", seg)
	}
	if !seg.Contains(a1) || !seg.Contains(a1+99) || seg.Contains(a1+100) {
		t.Error("Contains misbehaves at boundaries")
	}
	segB, _ := p.Segment("b")
	if len(segB.Init) != 3 {
		t.Errorf("segment b init = %v", segB.Init)
	}
	if _, ok := p.Segment("zzz"); ok {
		t.Error("missing segment must not be found")
	}
}

func TestBuilderSetDataBase(t *testing.T) {
	b := NewBuilder("dbase", 0)
	b.SetDataBase(0x5000)
	if addr := b.Bytes("x", 8, false); addr != 0x5000 {
		t.Errorf("data at %#x, want 0x5000", addr)
	}
	b.Hlt()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	// SetDataBase after allocation must fail.
	b2 := NewBuilder("dbase2", 0)
	b2.Bytes("x", 8, false)
	b2.SetDataBase(0x9000)
	b2.Hlt()
	if _, err := b2.Build(); err == nil {
		t.Error("late SetDataBase must fail")
	}
}

func TestProgramValidate(t *testing.T) {
	// Overlapping instructions.
	p := &Program{
		Name:  "bad",
		Entry: 0,
		Insns: []Instruction{
			{Addr: 0, Size: 4, Op: NOP},
			{Addr: 2, Size: 4, Op: HLT},
		},
	}
	if err := p.Validate(); err == nil {
		t.Error("overlap must fail validation")
	}
	// Unsorted.
	p2 := &Program{
		Name:  "unsorted",
		Entry: 4,
		Insns: []Instruction{
			{Addr: 4, Size: 4, Op: NOP},
			{Addr: 0, Size: 4, Op: HLT},
		},
	}
	if err := p2.Validate(); err == nil {
		t.Error("unsorted must fail validation")
	}
	// Branch to nowhere.
	p3 := &Program{
		Name:  "badtarget",
		Entry: 0,
		Insns: []Instruction{
			{Addr: 0, Size: 4, Op: JMP, Dst: Imm(0x999)},
		},
	}
	if err := p3.Validate(); err == nil {
		t.Error("dangling branch target must fail validation")
	}
	// Bad scale.
	p4 := &Program{
		Name:  "badscale",
		Entry: 0,
		Insns: []Instruction{
			{Addr: 0, Size: 4, Op: MOV, Dst: R(R0), Src: Operand{Kind: OpMem, Base: R1, Index: R2, Scale: 3}},
		},
	}
	if err := p4.Validate(); err == nil {
		t.Error("bad scale must fail validation")
	}
	// Overlapping data segments.
	p5 := &Program{
		Name:  "baddata",
		Entry: 0,
		Insns: []Instruction{{Addr: 0, Size: 4, Op: HLT}},
		Data: []DataSegment{
			{Name: "a", Addr: 100, Size: 64},
			{Name: "b", Addr: 130, Size: 64},
		},
	}
	if err := p5.Validate(); err == nil {
		t.Error("overlapping data must fail validation")
	}
}

func TestProgramLookups(t *testing.T) {
	b := NewBuilder("look", 0x100)
	b.Nop().Nop().Hlt()
	p := b.MustBuild()
	if in, ok := p.At(0x104); !ok || in.Op != NOP {
		t.Error("At(0x104) failed")
	}
	if _, ok := p.At(0x105); ok {
		t.Error("At(mid-instruction) must fail")
	}
	if i, ok := p.IndexOf(0x108); !ok || i != 2 {
		t.Errorf("IndexOf = %d,%v", i, ok)
	}
	if p.MinAddr() != 0x100 || p.MaxAddr() != 0x10c {
		t.Errorf("range = [%#x,%#x)", p.MinAddr(), p.MaxAddr())
	}
	if a, ok := p.Label("nope"); ok || a != 0 {
		t.Error("missing label lookup")
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder("dis", 0)
	b.Label("entry").BeginAttack().Clflush(Mem(R0, 0)).EndAttack().Hlt()
	p := b.MustBuild()
	out := p.Disassemble()
	for _, want := range []string{"entry:", "clflush [r0]", "hlt", "program dis"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q in:\n%s", want, out)
		}
	}
	// Attack-marked line carries the '*' marker.
	if !strings.Contains(out, "* clflush") {
		t.Errorf("attack mark missing:\n%s", out)
	}
}

func TestEmptyProgramRange(t *testing.T) {
	var p Program
	if p.MinAddr() != 0 || p.MaxAddr() != 0 {
		t.Error("empty program range should be 0,0")
	}
}

// Exercise the full builder instruction surface in-package (the attack
// corpus exercises it cross-package, which per-package coverage does not
// count).
func TestBuilderFullSurface(t *testing.T) {
	b := NewBuilder("surface", 0x100)
	if b.Name() != "surface" || b.PC() != 0x100 {
		t.Errorf("Name/PC = %q/%#x", b.Name(), b.PC())
	}
	b.Label("top").
		Add(R(R0), Imm(1)).
		Sub(R(R0), Imm(1)).
		Dec(R(R0)).
		Mul(R(R0), Imm(2)).
		Xor(R(R0), R(R1)).
		And(R(R0), Imm(0xff)).
		Or(R(R0), Imm(1)).
		Shl(R(R0), Imm(2)).
		Shr(R(R0), Imm(1)).
		Test(R(R0), R(R0)).
		Je("top").
		Jle("top").
		Jg("top").
		Jge("top").
		Jb("top").
		Jae("top").
		Jne("top").
		Jl("top").
		Push(R(R0)).
		Pop(R(R1)).
		Lfence().
		Mfence().
		Call("fn").
		Hlt().
		Label("fn").
		Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	// Every opcode of the surface appears.
	seen := map[Opcode]bool{}
	for _, in := range p.Insns {
		seen[in.Op] = true
	}
	for _, op := range []Opcode{ADD, SUB, DEC, MUL, XOR, AND, OR, SHL, SHR,
		TEST, JE, JLE, JG, JGE, JB, JAE, JNE, JL, PUSH, POP, LFENCE, MFENCE, CALL, RET, HLT} {
		if !seen[op] {
			t.Errorf("opcode %s missing from surface program", op)
		}
	}
}

func TestDataAtOverlapRejected(t *testing.T) {
	b := NewBuilder("overlap", 0)
	b.DataAt("a", 0x1000, 64, nil, false)
	b.DataAt("b", 0x1020, 64, nil, false) // overlaps a
	b.Hlt()
	if _, err := b.Build(); err == nil {
		t.Error("overlapping DataAt segments must fail validation")
	}
	b2 := NewBuilder("dupat", 0)
	b2.DataAt("x", 0x1000, 64, nil, false)
	b2.DataAt("x", 0x2000, 64, nil, false)
	b2.Hlt()
	if _, err := b2.Build(); err == nil {
		t.Error("duplicate DataAt names must fail")
	}
}

// Normalize reads a table built at init: every defined opcode and
// operand-kind combination must read back the spelled-out text, without
// allocating; undefined ones fall back to spelling it out.
func TestNormalizeTable(t *testing.T) {
	kinds := []OperandKind{OpNone, OpReg, OpImm, OpMem, OpMem + 1}
	for op := Opcode(0); op <= numOpcodes; op++ {
		for _, d := range kinds {
			for _, s := range kinds {
				in := Instruction{Op: op, Dst: Operand{Kind: d}, Src: Operand{Kind: s}}
				dn, sn := NormalizeOperand(in.Dst), NormalizeOperand(in.Src)
				want := op.String()
				if dn != "" && sn == "" {
					want += " " + dn
				} else if dn != "" {
					want += " " + dn + ", " + sn
				}
				if got := Normalize(in); got != want {
					t.Errorf("Normalize(%v %v, %v) = %q, want %q", op, d, s, got, want)
				}
			}
		}
	}
	in := Instruction{Op: MOV, Dst: Mem(R5, -0x18), Src: R(R0)}
	if n := testing.AllocsPerRun(100, func() { _ = Normalize(in) }); n != 0 {
		t.Errorf("Normalize allocates %.0f times per call", n)
	}
}
