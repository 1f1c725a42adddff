package isa

import (
	"fmt"
	"sort"
	"strings"
)

// DataSegment describes a region of initialized or reserved memory that a
// program expects to exist before execution starts.
type DataSegment struct {
	Name string
	Addr uint64
	Size uint64
	// Init holds initial byte values; when shorter than Size the rest is
	// zero-filled. May be nil for purely reserved (BSS-like) segments.
	Init []byte
	// Shared marks the segment as part of the shared-memory region
	// (library pages shared between attacker and victim), which
	// Flush+Reload-family attacks rely on.
	Shared bool
}

// End returns the first address past the segment.
func (d DataSegment) End() uint64 { return d.Addr + d.Size }

// Contains reports whether addr falls inside the segment.
func (d DataSegment) Contains(addr uint64) bool {
	return addr >= d.Addr && addr < d.End()
}

// Program is an assembled unit: a sorted instruction stream, its entry
// point, data segments and symbolic labels. It is the artefact the whole
// pipeline consumes — the stand-in for an ELF binary in the paper.
type Program struct {
	Name   string
	Entry  uint64
	Insns  []Instruction // sorted by Addr, non-overlapping
	Data   []DataSegment
	Labels map[string]uint64
}

// IndexOf returns the position in Insns of the instruction at the exact
// address addr. It binary-searches the address-sorted Insns and writes
// nothing, so any number of goroutines may look up (and execute) one
// Program concurrently.
func (p *Program) IndexOf(addr uint64) (int, bool) {
	i := sort.Search(len(p.Insns), func(i int) bool { return p.Insns[i].Addr >= addr })
	if i < len(p.Insns) && p.Insns[i].Addr == addr {
		return i, true
	}
	return 0, false
}

// Label resolves a symbolic label to its address.
func (p *Program) Label(name string) (uint64, bool) {
	a, ok := p.Labels[name]
	return a, ok
}

// MinAddr returns the address of the first instruction, 0 for a
// program without code.
func (p *Program) MinAddr() uint64 {
	if len(p.Insns) == 0 {
		return 0
	}
	return p.Insns[0].Addr
}

// Segment returns the data segment with the given name.
func (p *Program) Segment(name string) (DataSegment, bool) {
	for _, d := range p.Data {
		if d.Name == name {
			return d, true
		}
	}
	return DataSegment{}, false
}

// AttackAddrs returns the addresses of instructions carrying the
// ground-truth attack mark, in address order.
func (p *Program) AttackAddrs() []uint64 {
	var out []uint64
	for _, in := range p.Insns {
		if in.Attack {
			out = append(out, in.Addr)
		}
	}
	return out
}

// Validate checks structural invariants: sortedness, non-overlap, a
// resolvable entry point, in-range branch targets and well-formed
// operands. A Program that passes Validate is safe to execute. Validate
// only reads the program.
func (p *Program) Validate() error {
	if len(p.Insns) == 0 {
		return fmt.Errorf("program %q: no instructions", p.Name)
	}
	if !sort.SliceIsSorted(p.Insns, func(i, j int) bool {
		return p.Insns[i].Addr < p.Insns[j].Addr
	}) {
		return fmt.Errorf("program %q: instructions not sorted by address", p.Name)
	}
	for i := 1; i < len(p.Insns); i++ {
		prev, cur := p.Insns[i-1], p.Insns[i]
		if prev.Next() > cur.Addr {
			return fmt.Errorf("program %q: instructions at 0x%x and 0x%x overlap",
				p.Name, prev.Addr, cur.Addr)
		}
	}
	if _, ok := p.IndexOf(p.Entry); !ok {
		return fmt.Errorf("program %q: entry 0x%x is not an instruction", p.Name, p.Entry)
	}
	for _, in := range p.Insns {
		if !in.Op.Valid() {
			return fmt.Errorf("program %q: invalid opcode at 0x%x", p.Name, in.Addr)
		}
		if in.Size == 0 {
			return fmt.Errorf("program %q: zero-size instruction at 0x%x", p.Name, in.Addr)
		}
		if t, ok := in.BranchTarget(); ok {
			if _, exists := p.IndexOf(t); !exists {
				return fmt.Errorf("program %q: %s at 0x%x targets 0x%x which is not an instruction",
					p.Name, in.Op, in.Addr, t)
			}
		}
		for _, op := range [...]Operand{in.Dst, in.Src} {
			switch op.Kind {
			case OpReg:
				if !op.Base.Valid() {
					return fmt.Errorf("program %q: bad register operand at 0x%x", p.Name, in.Addr)
				}
			case OpMem:
				if op.Base != RegNone && !op.Base.Valid() {
					return fmt.Errorf("program %q: bad base register at 0x%x", p.Name, in.Addr)
				}
				if op.Index != RegNone && !op.Index.Valid() {
					return fmt.Errorf("program %q: bad index register at 0x%x", p.Name, in.Addr)
				}
				switch op.Scale {
				case 0, 1, 2, 4, 8:
				default:
					return fmt.Errorf("program %q: bad scale %d at 0x%x", p.Name, op.Scale, in.Addr)
				}
			}
		}
	}
	for i, d := range p.Data {
		if d.Size == 0 {
			return fmt.Errorf("program %q: data segment %q has zero size", p.Name, d.Name)
		}
		if uint64(len(d.Init)) > d.Size {
			return fmt.Errorf("program %q: data segment %q init larger than size", p.Name, d.Name)
		}
		for j := range p.Data[:i] {
			o := p.Data[j]
			if d.Addr < o.End() && o.Addr < d.End() {
				return fmt.Errorf("program %q: data segments %q and %q overlap", p.Name, o.Name, d.Name)
			}
		}
	}
	return nil
}

// Disassemble renders the whole program as readable assembly, one
// instruction per line with addresses, for debugging and documentation.
func (p *Program) Disassemble() string {
	addrLabel := make(map[uint64]string, len(p.Labels))
	for name, a := range p.Labels {
		if prev, ok := addrLabel[a]; !ok || name < prev {
			addrLabel[a] = name
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s  entry=0x%x  %d insns\n", p.Name, p.Entry, len(p.Insns))
	for _, in := range p.Insns {
		if l, ok := addrLabel[in.Addr]; ok {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		mark := " "
		if in.Attack {
			mark = "*"
		}
		fmt.Fprintf(&b, "  0x%06x%s %s\n", in.Addr, mark, in.String())
	}
	return b.String()
}
