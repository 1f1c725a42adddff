package isa

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseMinimal(t *testing.T) {
	p, err := Parse("min", `
		; simplest program
		mov r0, 42
		hlt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insns) != 2 {
		t.Fatalf("insns = %d", len(p.Insns))
	}
	if p.Insns[0].Op != MOV || p.Insns[0].Src.Disp != 42 {
		t.Errorf("insn 0 = %s", p.Insns[0])
	}
	if p.Entry != 0x40_0000 {
		t.Errorf("default code base = %#x", p.Entry)
	}
}

func TestParseDirectivesAndSymbols(t *testing.T) {
	p, err := Parse("full", `
		.code 0x1000
		.database 0x20000
		.entry main
		.data buf 128
		.data tab 256 shared @0x30000000

		helper:
		  ret

		main:
		  mov r1, $buf
		  mov r2, [tab]          ; absolute segment reference
		  mov r3, [r1+8]
		  lea r4, [r1+r2*4+16]
		  mov [buf+64], r3
		  clflush [tab+0x40]
		  rdtscp r5
		  cmp r5, 0x10
		  jae main
		  call helper
		  hlt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.Labels["main"] {
		t.Errorf("entry = %#x, main = %#x", p.Entry, p.Labels["main"])
	}
	buf, ok := p.Segment("buf")
	if !ok || buf.Addr != 0x20000 {
		t.Errorf("buf = %+v", buf)
	}
	tab, ok := p.Segment("tab")
	if !ok || tab.Addr != 0x30000000 || !tab.Shared {
		t.Errorf("tab = %+v", tab)
	}
	// mov r1, $buf resolves to an immediate with buf's address.
	i, ok := p.IndexOf(p.Labels["main"])
	if !ok {
		t.Fatal("label main is not an instruction")
	}
	in := p.Insns[i]
	if in.Src.Kind != OpImm || uint64(in.Src.Disp) != buf.Addr {
		t.Errorf("$buf operand = %+v", in.Src)
	}
}

func TestParsedProgramExecutes(t *testing.T) {
	p, err := Parse("sum", `
		.data arr 64
		  mov r0, 0        ; sum
		  mov r1, 0        ; i
		  mov r2, $arr
		loop:
		  mov [r2+r1*8], r1
		  add r0, [r2+r1*8]
		  inc r1
		  cmp r1, 8
		  jl loop
		  hlt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// sum 0..7 = 28 — verified through the exec package in the facade
	// test; here just check shape.
	if len(p.Insns) != 9 {
		t.Errorf("insns = %d", len(p.Insns))
	}
}

func TestParseOperandForms(t *testing.T) {
	p, err := Parse("ops", `
		  mov r0, -5
		  mov r1, 0xff
		  push r0
		  pop r2
		  inc r2
		  dec r2
		  test r2, r2
		  mov r3, [r1-8]
		  mov r4, [r1+r2]
		  lfence
		  mfence
		  nop
		  hlt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insns[0].Src.Disp != -5 {
		t.Errorf("negative imm = %d", p.Insns[0].Src.Disp)
	}
	if p.Insns[7].Src.Disp != -8 {
		t.Errorf("negative disp = %d", p.Insns[7].Src.Disp)
	}
	// [r1+r2] — second register becomes index with scale 1.
	m := p.Insns[8].Src
	if m.Base != R1 || m.Index != R2 || m.Scale != 1 {
		t.Errorf("two-reg mem = %+v", m)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus r0, 1",        // unknown mnemonic
		"mov r0",             // missing operand
		"mov r0, r1, r2",     // too many operands
		"inc r0, r1",         // too many for unary
		"rdtscp 5",           // rdtscp wants a register
		"lea r0, r1",         // lea wants memory
		"jmp",                // branch without label
		"jmp a b",            // branch with junk
		"mov r0, [r1+r2+r3]", // three registers
		"mov r0, [r1*3]",     // bad scale
		"mov r0, [qq]",       // unknown symbol
		"mov r0, $zz",        // unknown $symbol
		"mov r0, [r1",        // unterminated
		"nop r1",             // operands on nullary
		".data x",            // bad directive arity
		".data x 0x1 @zz",    // bad address
		".bogus 1",           // unknown directive
		".code zz",           // bad code base
		"mov r0, [ ]",        // empty mem
		"mov r99, 1",         // bad register is parsed as symbol -> error
	}
	for _, src := range cases {
		if _, err := Parse("bad", src+"\nhlt\n"); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestParseUndefinedLabel(t *testing.T) {
	if _, err := Parse("lbl", "jmp nowhere\nhlt\n"); err == nil {
		t.Error("undefined label must fail at Build")
	}
}

// Round trip: disassembling a parsed program and eyeballing key lines.
func TestParseDisassembleConsistency(t *testing.T) {
	p, err := Parse("rt", `
		start:
		  mov r0, 1
		  clflush [r0]
		  jne start
		  hlt
	`)
	if err != nil {
		t.Fatal(err)
	}
	dis := p.Disassemble()
	for _, want := range []string{"mov r0, 0x1", "clflush [r0]", "jne", "hlt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestParseMultipleLabelsPerLine(t *testing.T) {
	p, err := Parse("ml", `
		a: b: nop
		jmp b
		hlt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["a"] != p.Labels["b"] {
		t.Error("stacked labels must share an address")
	}
}

// TestParseLimits: hostile input hits a typed *LimitError instead of
// ballooning memory; input at the limit still parses.
func TestParseLimits(t *testing.T) {
	limitErr := func(t *testing.T, src, what string) {
		t.Helper()
		_, err := Parse("hostile", src)
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("err = %v, want *LimitError", err)
		}
		if le.What != what {
			t.Errorf("What = %q, want %q", le.What, what)
		}
		if !strings.Contains(le.Error(), what) {
			t.Errorf("Error() = %q does not name the resource", le.Error())
		}
	}

	t.Run("instructions", func(t *testing.T) {
		limitErr(t, strings.Repeat("nop\n", MaxParseInstructions+1), "instructions")
	})
	t.Run("labels", func(t *testing.T) {
		var b strings.Builder
		for i := 0; i <= MaxParseLabels; i++ {
			fmt.Fprintf(&b, "l%d:\n", i)
		}
		b.WriteString("hlt\n")
		limitErr(t, b.String(), "labels")
	})
	t.Run("data-segments", func(t *testing.T) {
		var b strings.Builder
		for i := 0; i <= MaxParseDataSegments; i++ {
			fmt.Fprintf(&b, ".data d%d 8\n", i)
		}
		b.WriteString("hlt\n")
		limitErr(t, b.String(), "data segments")
	})
	t.Run("at-the-limit-parses", func(t *testing.T) {
		src := strings.Repeat("nop\n", MaxParseInstructions-1) + "hlt\n"
		if _, err := Parse("big", src); err != nil {
			t.Fatalf("program at the limit rejected: %v", err)
		}
	})
}
