package isa

import "strings"

// Normalization implements the three rewrite rules of Section III-B1 of
// the paper (following SPAIN's instruction normalization): immediates
// become "imm", memory references become "mem" and registers become
// "reg". The normalized text strips the syntactic differences a compiler
// (or a mutation/obfuscation pass) introduces, leaving only the operation
// shape that the Levenshtein distance compares.

// NormalizeOperand returns the normalized token for one operand.
func NormalizeOperand(o Operand) string {
	switch o.Kind {
	case OpReg:
		return "reg"
	case OpImm:
		return "imm"
	case OpMem:
		return "mem"
	}
	return ""
}

// Normalize returns the normalized form of a single instruction, e.g.
// "mov mem, reg" for `mov -0x18(rbp), rax`. Defined opcodes and operand
// kinds read a table built at init, so normalizing allocates nothing.
func Normalize(in Instruction) string {
	if in.Op < numOpcodes && in.Dst.Kind < numOperandKinds && in.Src.Kind < numOperandKinds {
		return normalized[in.Op][in.Dst.Kind][in.Src.Kind]
	}
	return normalize(in.Op, in.Dst.Kind, in.Src.Kind)
}

// numOperandKinds bounds the OperandKind values the table covers.
const numOperandKinds = OpMem + 1

// normalized holds Normalize's result for every defined opcode and
// operand-kind combination.
var normalized = func() (t [numOpcodes][numOperandKinds][numOperandKinds]string) {
	for op := range t {
		for d := range t[op] {
			for s := range t[op][d] {
				t[op][d][s] = normalize(Opcode(op), OperandKind(d), OperandKind(s))
			}
		}
	}
	return t
}()

// normalize spells out the normalized text of an instruction shape.
func normalize(op Opcode, dst, src OperandKind) string {
	// Branch targets are immediates syntactically but their concrete
	// values are layout noise; they normalize to "imm" like any other
	// immediate, which is exactly what the paper's rule (1) prescribes.
	d := NormalizeOperand(Operand{Kind: dst})
	s := NormalizeOperand(Operand{Kind: src})
	switch {
	case d == "":
		return op.String()
	case s == "":
		return op.String() + " " + d
	default:
		return op.String() + " " + d + ", " + s
	}
}

// NormalizeSeq normalizes every instruction of a sequence in order.
func NormalizeSeq(ins []Instruction) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = Normalize(in)
	}
	return out
}

// NormalizedKey joins a normalized sequence into a single comparable
// string. Useful as a map key when deduplicating basic-block bodies.
func NormalizedKey(ins []Instruction) string {
	return strings.Join(NormalizeSeq(ins), "; ")
}
