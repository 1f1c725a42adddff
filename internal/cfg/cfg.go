// Package cfg recovers control flow graphs from ISA programs — the
// reproduction's stand-in for Angr's CFG recovery on binaries
// (Section III-A1 of the paper).
//
// Recovery is the classic leader algorithm: the program entry, every
// static branch target and every instruction following a branch starts a
// basic block; blocks end at branches or right before the next leader.
// Indirect branches and RET contribute no static successors, exactly as
// a conservative binary-level CFG would.
package cfg

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/isa"
)

// BasicBlock is a straight-line instruction sequence (Definition 1).
// Its identity is the address of its first instruction (the leader).
type BasicBlock struct {
	Leader uint64
	Insns  []isa.Instruction
}

// Last returns the final instruction of the block.
func (b *BasicBlock) Last() isa.Instruction { return b.Insns[len(b.Insns)-1] }

// End returns the first address past the block.
func (b *BasicBlock) End() uint64 { return b.Last().Next() }

// Contains reports whether addr is the address of one of the block's
// instructions.
func (b *BasicBlock) Contains(addr uint64) bool {
	for _, in := range b.Insns {
		if in.Addr == addr {
			return true
		}
	}
	return false
}

// HasAttackMark reports whether any instruction carries the ground-truth
// attack mark (evaluation only).
func (b *BasicBlock) HasAttackMark() bool {
	for _, in := range b.Insns {
		if in.Attack {
			return true
		}
	}
	return false
}

// CFG is the control flow graph of a program (Definition 1): blocks keyed
// by leader address plus a digraph over leaders.
type CFG struct {
	Prog   *isa.Program
	Blocks map[uint64]*BasicBlock
	G      *graph.Digraph

	// blocks holds every block in leader order; Blocks points into it.
	blocks []BasicBlock
	// blockOf maps an instruction's position in Prog.Insns to the
	// position of its block in blocks.
	blockOf []int32
}

// Build recovers the CFG of p. Blocks share their instructions with
// p.Insns (each block's Insns is a capacity-limited subslice of it).
func Build(p *isa.Program) (*CFG, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	insns := p.Insns
	n := len(insns)
	// falls reports whether instruction i+1 starts exactly where i ends.
	falls := func(i int) bool { return i+1 < n && insns[i+1].Addr == insns[i].Next() }

	// Leaders: the first instruction, the entry and every static branch
	// target. The next instruction also starts a block after a branch
	// (even an unconditional one: it may be a join target reached from
	// elsewhere), after HLT and after a gap in the address space.
	leader := make([]bool, n)
	leader[0] = true
	entry, _ := p.IndexOf(p.Entry)
	leader[entry] = true
	for i := range insns {
		in := &insns[i]
		if t, ok := in.BranchTarget(); ok {
			j, _ := p.IndexOf(t) // Validate guarantees t is an instruction
			leader[j] = true
		}
		if i+1 < n && (in.Op.IsBranch() || in.Op == isa.HLT || !falls(i)) {
			leader[i+1] = true
		}
	}
	nb := 0
	for _, l := range leader {
		if l {
			nb++
		}
	}

	c := &CFG{
		Prog:    p,
		Blocks:  make(map[uint64]*BasicBlock, nb),
		G:       graph.New(),
		blocks:  make([]BasicBlock, 0, nb),
		blockOf: make([]int32, n),
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		c.blocks = append(c.blocks, BasicBlock{Leader: insns[i].Addr, Insns: insns[i:j:j]})
		for k := i; k < j; k++ {
			c.blockOf[k] = int32(len(c.blocks) - 1)
		}
		i = j
	}
	for k := range c.blocks {
		bb := &c.blocks[k]
		c.Blocks[bb.Leader] = bb
		c.G.AddNode(bb.Leader)
	}

	// Edges, in leader order.
	last := -1
	for k := range c.blocks {
		bb := &c.blocks[k]
		last += len(bb.Insns)
		in := &bb.Insns[len(bb.Insns)-1]
		if t, ok := in.BranchTarget(); ok {
			j, _ := p.IndexOf(t)
			c.G.AddEdge(bb.Leader, c.leaderAt(j))
		}
		switch in.Op {
		case isa.HLT, isa.RET, isa.JMP:
			// Terminal, or no static fallthrough successor.
		default:
			// Plain fallthrough into the next leader. A call returns,
			// so its fallthrough edge approximates the post-return
			// control flow, as binary CFG tools do.
			if falls(last) {
				c.G.AddEdge(bb.Leader, c.leaderAt(last+1))
			}
		}
	}
	return c, nil
}

// leaderAt returns the leader of the block holding instruction i.
func (c *CFG) leaderAt(i int) uint64 { return c.blocks[c.blockOf[i]].Leader }

// MustBuild panics on error; for tests and static corpora.
func MustBuild(p *isa.Program) *CFG {
	c, err := Build(p)
	if err != nil {
		panic(err)
	}
	return c
}

// LeaderOf maps any instruction address to its block leader.
func (c *CFG) LeaderOf(addr uint64) (uint64, bool) {
	i, ok := c.Prog.IndexOf(addr)
	if !ok {
		return 0, false
	}
	return c.leaderAt(i), true
}

// Block returns the block with the given leader.
func (c *CFG) Block(leader uint64) (*BasicBlock, bool) {
	b, ok := c.Blocks[leader]
	return b, ok
}

// Ordered returns every block in ascending leader order. The slice is
// the CFG's own storage: callers must not modify it.
func (c *CFG) Ordered() []BasicBlock { return c.blocks }

// Leaders returns all block leaders in ascending address order.
func (c *CFG) Leaders() []uint64 {
	out := make([]uint64, len(c.blocks))
	for k := range c.blocks {
		out[k] = c.blocks[k].Leader
	}
	return out
}

// NumBlocks returns the block count (#BB of Table IV).
func (c *CFG) NumBlocks() int { return len(c.Blocks) }

// EntryLeader returns the leader of the entry block.
func (c *CFG) EntryLeader() uint64 {
	l, ok := c.LeaderOf(c.Prog.Entry)
	if !ok {
		return c.Prog.Entry
	}
	return l
}

// GroundTruthAttackBlocks returns the leaders of blocks containing at
// least one ground-truth-marked instruction (#TAB of Table IV).
func (c *CFG) GroundTruthAttackBlocks() []uint64 {
	var out []uint64
	for k := range c.blocks {
		if c.blocks[k].HasAttackMark() {
			out = append(out, c.blocks[k].Leader)
		}
	}
	return out
}

// String summarizes the CFG.
func (c *CFG) String() string {
	return fmt.Sprintf("cfg{%s: %d blocks, %d edges}", c.Prog.Name, c.NumBlocks(), c.G.NumEdges())
}
