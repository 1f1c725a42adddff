package cfg

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestStraightLineProgram(t *testing.T) {
	b := isa.NewBuilder("straight", 0)
	b.Nop().Nop().Nop().Hlt()
	c := MustBuild(b.MustBuild())
	if c.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", c.NumBlocks())
	}
	if c.G.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", c.G.NumEdges())
	}
	bb := c.Blocks[c.EntryLeader()]
	if len(bb.Insns) != 4 || bb.Last().Op != isa.HLT {
		t.Errorf("block = %+v", bb)
	}
	if bb.End() != 16 {
		t.Errorf("End = %d", bb.End())
	}
}

func TestLoopCFG(t *testing.T) {
	b := isa.NewBuilder("loop", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(10)). // b0
						Label("loop"). // b1
						Dec(isa.R(isa.R0)).
						Jne("loop").
						Hlt() // b2
	c := MustBuild(b.MustBuild())
	if c.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3; leaders %v", c.NumBlocks(), c.Leaders())
	}
	loop := c.Prog.Labels["loop"]
	// Loop block: self edge + exit edge.
	if !c.G.HasEdge(loop, loop) {
		t.Error("missing loop back edge")
	}
	succs := c.G.Succs(loop)
	if len(succs) != 2 {
		t.Errorf("loop succs = %v", succs)
	}
	// Entry falls through into loop.
	if !c.G.HasEdge(c.EntryLeader(), loop) {
		t.Error("missing entry->loop edge")
	}
}

func TestDiamondCFG(t *testing.T) {
	b := isa.NewBuilder("diamond", 0)
	b.Cmp(isa.R(isa.R0), isa.Imm(0)). // b0
						Je("else").
						Mov(isa.R(isa.R1), isa.Imm(1)). // then
						Jmp("join").
						Label("else").
						Mov(isa.R(isa.R1), isa.Imm(2)).
						Label("join").
						Hlt()
	c := MustBuild(b.MustBuild())
	if c.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", c.NumBlocks())
	}
	entry := c.EntryLeader()
	elseL := c.Prog.Labels["else"]
	join := c.Prog.Labels["join"]
	thenL := uint64(8) // after the Je at addr 4
	if !c.G.HasEdge(entry, elseL) || !c.G.HasEdge(entry, thenL) {
		t.Error("entry must branch to both arms")
	}
	if !c.G.HasEdge(thenL, join) || !c.G.HasEdge(elseL, join) {
		t.Error("both arms must reach join")
	}
}

func TestCallFallthroughEdge(t *testing.T) {
	b := isa.NewBuilder("call", 0)
	b.Call("fn"). // b0
			Hlt(). // b1 (post-call)
			Label("fn").
			Ret() // b2
	c := MustBuild(b.MustBuild())
	entry := c.EntryLeader()
	fn := c.Prog.Labels["fn"]
	if !c.G.HasEdge(entry, fn) {
		t.Error("missing call edge")
	}
	if !c.G.HasEdge(entry, 4) {
		t.Error("missing post-call fallthrough edge")
	}
	if len(c.G.Succs(fn)) != 0 {
		t.Error("RET must have no static successors")
	}
}

func TestIndirectJumpNoSuccessor(t *testing.T) {
	b := isa.NewBuilder("ind", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(8)).
		Raw(isa.JMP, isa.R(isa.R0), isa.None()).
		Hlt()
	c := MustBuild(b.MustBuild())
	entry := c.EntryLeader()
	if len(c.G.Succs(entry)) != 0 {
		t.Errorf("indirect jump succs = %v", c.G.Succs(entry))
	}
	// The HLT after the JMP is still carved into its own block.
	if c.NumBlocks() != 2 {
		t.Errorf("blocks = %d", c.NumBlocks())
	}
}

func TestLeaderOfMidBlock(t *testing.T) {
	b := isa.NewBuilder("mid", 0x100)
	b.Nop().Nop().Nop().Hlt()
	c := MustBuild(b.MustBuild())
	if l, ok := c.LeaderOf(0x108); !ok || l != 0x100 {
		t.Errorf("LeaderOf(0x108) = %#x,%v", l, ok)
	}
	if _, ok := c.LeaderOf(0x999); ok {
		t.Error("LeaderOf(bogus) must fail")
	}
	if _, ok := c.Block(0x100); !ok {
		t.Error("Block(leader) must succeed")
	}
	if _, ok := c.Block(0x104); ok {
		t.Error("Block(non-leader) must fail")
	}
}

func TestGroundTruthBlocks(t *testing.T) {
	b := isa.NewBuilder("gt", 0)
	b.Nop().
		Jmp("next").
		Label("next").
		BeginAttack().
		Clflush(isa.Mem(isa.R0, 0)).
		EndAttack().
		Hlt()
	c := MustBuild(b.MustBuild())
	gt := c.GroundTruthAttackBlocks()
	if len(gt) != 1 {
		t.Fatalf("ground truth blocks = %v", gt)
	}
	if gt[0] != c.Prog.Labels["next"] {
		t.Errorf("ground truth leader = %#x", gt[0])
	}
	bb := c.Blocks[gt[0]]
	if !bb.HasAttackMark() || !bb.Contains(gt[0]) {
		t.Error("block mark/contains broken")
	}
	if bb.Contains(0) {
		t.Error("Contains must be block-local")
	}
}

func TestEntryMidProgram(t *testing.T) {
	b := isa.NewBuilder("mid-entry", 0)
	b.Label("helper").
		Ret().
		Label("main").
		Call("helper").
		Hlt().
		Entry("main")
	c := MustBuild(b.MustBuild())
	if c.EntryLeader() != c.Prog.Labels["main"] {
		t.Errorf("entry leader = %#x", c.EntryLeader())
	}
}

func TestInvalidProgramRejected(t *testing.T) {
	p := &isa.Program{Name: "bad"}
	if _, err := Build(p); err == nil {
		t.Error("invalid program must be rejected")
	}
}

func TestCFGStringAndLeaders(t *testing.T) {
	b := isa.NewBuilder("s", 0)
	b.Jmp("x").Label("x").Hlt()
	c := MustBuild(b.MustBuild())
	if c.String() == "" {
		t.Error("String empty")
	}
	ls := c.Leaders()
	for i := 1; i < len(ls); i++ {
		if ls[i-1] >= ls[i] {
			t.Error("leaders not sorted")
		}
	}
}

// Every instruction belongs to exactly one block, blocks partition the
// program, and every edge endpoint is a leader.
func TestCFGPartitionInvariant(t *testing.T) {
	b := isa.NewBuilder("part", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(3)).
		Label("outer").
		Mov(isa.R(isa.R1), isa.Imm(2)).
		Label("inner").
		Dec(isa.R(isa.R1)).
		Jne("inner").
		Dec(isa.R(isa.R0)).
		Jne("outer").
		Call("sub").
		Hlt().
		Label("sub").
		Cmp(isa.R(isa.R0), isa.Imm(0)).
		Je("out").
		Nop().
		Label("out").
		Ret()
	p := b.MustBuild()
	c := MustBuild(p)
	count := 0
	for _, bb := range c.Blocks {
		count += len(bb.Insns)
		for i := 1; i < len(bb.Insns); i++ {
			if bb.Insns[i-1].Next() != bb.Insns[i].Addr {
				t.Error("non-contiguous block")
			}
			if bb.Insns[i-1].Op.IsBranch() {
				t.Error("branch inside a block")
			}
		}
	}
	if count != len(p.Insns) {
		t.Errorf("blocks cover %d of %d instructions", count, len(p.Insns))
	}
	for _, e := range c.G.Edges() {
		if _, ok := c.Blocks[e.From]; !ok {
			t.Errorf("edge from non-leader %#x", e.From)
		}
		if _, ok := c.Blocks[e.To]; !ok {
			t.Errorf("edge to non-leader %#x", e.To)
		}
	}
}

func TestDOT(t *testing.T) {
	b := isa.NewBuilder("dot", 0)
	b.Cmp(isa.R(isa.R0), isa.Imm(0)).
		Je("x").
		Nop().
		Label("x").
		Hlt()
	c := MustBuild(b.MustBuild())
	out := c.DOT(map[uint64]bool{c.EntryLeader(): true})
	for _, want := range []string{"digraph", "lightcoral", "->", "cmp r0"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	gout := c.GraphDOT(c.G, "attack-graph")
	if !strings.Contains(gout, "attack-graph") || !strings.Contains(gout, "insns") {
		t.Errorf("GraphDOT:\n%s", gout)
	}
}

// Blocks are capacity-limited windows of the program's own instruction
// slice, listed in leader order by Ordered, and LeaderOf resolves every
// instruction address (and nothing else) to its block's leader.
func TestBlocksShareProgramStorage(t *testing.T) {
	b := isa.NewBuilder("share", 0)
	b.Mov(isa.R(isa.R0), isa.Imm(3)).
		Label("loop").
		Dec(isa.R(isa.R0)).
		Jne("loop").
		Call("sub").
		Hlt().
		Label("sub").
		Nop().
		Ret()
	p := b.MustBuild()
	c := MustBuild(p)
	ordered := c.Ordered()
	if len(ordered) != c.NumBlocks() {
		t.Fatalf("Ordered has %d blocks, Blocks %d", len(ordered), c.NumBlocks())
	}
	next := 0
	for k := range ordered {
		bb := &ordered[k]
		if c.Blocks[bb.Leader] != bb {
			t.Errorf("Blocks[%#x] does not point into Ordered", bb.Leader)
		}
		if k > 0 && ordered[k-1].Leader >= bb.Leader {
			t.Errorf("Ordered not ascending at %d", k)
		}
		if &bb.Insns[0] != &p.Insns[next] || cap(bb.Insns) != len(bb.Insns) {
			t.Errorf("block %#x is not a capacity-limited window of Prog.Insns", bb.Leader)
		}
		for _, in := range bb.Insns {
			if l, ok := c.LeaderOf(in.Addr); !ok || l != bb.Leader {
				t.Errorf("LeaderOf(%#x) = %#x,%v, want %#x", in.Addr, l, ok, bb.Leader)
			}
		}
		next += len(bb.Insns)
	}
	if _, ok := c.LeaderOf(p.Insns[0].Addr + 1); ok {
		t.Error("LeaderOf resolved an address inside an instruction")
	}
	// Edges are inserted in leader order, so predecessor lists are
	// deterministic too.
	for i := 0; i < 5; i++ {
		again := MustBuild(p)
		for _, l := range c.Leaders() {
			if !reflect.DeepEqual(again.G.Preds(l), c.G.Preds(l)) {
				t.Fatalf("Preds(%#x) differ between builds", l)
			}
		}
	}
}
