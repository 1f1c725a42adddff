package model

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/isa"
)

func TestMeasureCSTReloadBlock(t *testing.T) {
	sim := cache.MustNew(DefaultMeasureCache())
	total := float64(DefaultMeasureCache().Sets * DefaultMeasureCache().Ways)
	lines := []uint64{0, 64, 128, 192} // 4 distinct lines
	cst := MeasureCST(sim, lines, nil)
	if cst.Before.AO != 0 || cst.Before.IO != 1 {
		t.Errorf("before = %+v, want (0,1)", cst.Before)
	}
	wantAO := 4 / total
	if cst.After.AO != wantAO {
		t.Errorf("after.AO = %v, want %v", cst.After.AO, wantAO)
	}
	if cst.After.IO != 1-wantAO {
		t.Errorf("after.IO = %v, want %v", cst.After.IO, 1-wantAO)
	}
	if cst.Delta() <= 0 {
		t.Error("reload block must change the cache state")
	}
}

func TestMeasureCSTFlushBlock(t *testing.T) {
	sim := cache.MustNew(DefaultMeasureCache())
	total := float64(DefaultMeasureCache().Sets * DefaultMeasureCache().Ways)
	flushes := []uint64{0, 64, 128}
	cst := MeasureCST(sim, nil, flushes)
	if cst.After.AO != 0 {
		t.Errorf("flush block must not gain attacker lines: %+v", cst.After)
	}
	if want := 1 - 3/total; cst.After.IO != want {
		t.Errorf("after.IO = %v, want %v", cst.After.IO, want)
	}
	// Flush signature differs from the reload signature.
	reload := MeasureCST(sim, flushes, nil)
	if reload.After.AO == cst.After.AO {
		t.Error("flush and reload blocks must be distinguishable")
	}
}

func TestMeasureCSTEmptyBlock(t *testing.T) {
	sim := cache.MustNew(DefaultMeasureCache())
	cst := MeasureCST(sim, nil, nil)
	if cst.Delta() != 0 {
		t.Errorf("empty block delta = %v, want 0", cst.Delta())
	}
	if cst.Before != cst.After {
		t.Error("empty block must be an identity transition")
	}
}

func TestMeasureCSTReuseResets(t *testing.T) {
	sim := cache.MustNew(DefaultMeasureCache())
	MeasureCST(sim, []uint64{0, 64}, nil)
	cst := MeasureCST(sim, nil, nil)
	if cst.Before.AO != 0 || cst.Before.IO != 1 {
		t.Errorf("simulator not reset between measurements: %+v", cst.Before)
	}
}

func TestCSTDelta(t *testing.T) {
	c := CST{
		Before: cache.State{AO: 0, IO: 1},
		After:  cache.State{AO: 0.25, IO: 0.5},
	}
	if got := c.Delta(); got != (0.25+0.5)/2 {
		t.Errorf("delta = %v", got)
	}
}

// The running example of Fig 3: nodes a..e = 1..5, attack-relevant
// {a,c,e}, HPC(b)=3. Expected attack-relevant graph (Fig 3(f)):
// edges a->c, a->b, b->e.
func TestBuildAttackGraphFig3(t *testing.T) {
	g := graph.New(nil, []graph.Edge{
		{From: 1, To: 2}, // a->b
		{From: 2, To: 3}, // b->c
		{From: 1, To: 3}, // a->c
		{From: 3, To: 4}, // c->d
		{From: 4, To: 1}, // d->a (back edge)
		{From: 2, To: 5}, // b->e
	})
	hpc := map[uint64]uint64{1: 9, 2: 3, 3: 5, 5: 4}
	ga := BuildAttackGraph(g, 1, []uint64{1, 3, 5}, hpc, DefaultConfig())

	hasEdge := func(from, to uint64) bool { return slices.Contains(ga.Succs(from), to) }
	if !hasEdge(1, 3) {
		t.Error("missing direct edge a->c (weight MAX)")
	}
	if !hasEdge(1, 2) || !hasEdge(2, 5) {
		t.Error("missing restored path a->b->e")
	}
	if hasEdge(2, 3) {
		t.Error("path a->b->c must not be restored (lost to the MAX edge)")
	}
	if slices.Contains(ga.Nodes(), 4) {
		t.Error("d is not part of any chosen path")
	}
	if ga.NumNodes() != 4 {
		t.Errorf("nodes = %v", ga.Nodes())
	}
}

func TestBuildAttackGraphDegenerate(t *testing.T) {
	g := graph.New(nil, []graph.Edge{{From: 1, To: 2}})
	// Fewer than two relevant blocks: graph contains just those nodes.
	ga := BuildAttackGraph(g, 1, []uint64{1}, nil, DefaultConfig())
	if ga.NumNodes() != 1 || ga.NumEdges() != 0 {
		t.Errorf("singleton graph = %v", ga)
	}
	ga = BuildAttackGraph(g, 1, nil, nil, DefaultConfig())
	if ga.NumNodes() != 0 {
		t.Error("empty relevant set must produce an empty graph")
	}
}

func TestBuildAttackGraphDisconnectedRelevant(t *testing.T) {
	// Two relevant blocks with no connecting path: forest, no edges.
	g := graph.New(nil, []graph.Edge{{From: 1, To: 2}, {From: 3, To: 4}})
	ga := BuildAttackGraph(g, 1, []uint64{1, 3}, nil, DefaultConfig())
	if ga.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", ga.NumEdges())
	}
	if !slices.Contains(ga.Nodes(), 1) || !slices.Contains(ga.Nodes(), 3) {
		t.Error("relevant nodes must stay in the graph")
	}
}

// miniFlushReload builds a compact Flush+Reload PoC and its victim for
// pipeline tests. The flush and reload blocks carry ground-truth marks.
func miniFlushReload() (*isa.Program, *isa.Program) {
	const lineSize = 64
	const numLines = 8
	sharedBase := uint64(0x20000000)
	resBase := uint64(0x28000000)

	vb := isa.NewBuilder("mini-victim", 0x800000)
	vb.Mov(isa.R(isa.R1), isa.Imm(int64(sharedBase+3*lineSize))).
		Label("loop").
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Jmp("loop")
	victim := vb.MustBuild()

	ab := isa.NewBuilder("mini-fr", 0x400000)
	ab.Mov(isa.R(isa.R7), isa.Imm(3)) // monitoring rounds
	ab.Label("round")
	ab.Mov(isa.R(isa.R2), isa.Imm(0))
	ab.Label("lines")
	ab.Mov(isa.R(isa.R1), isa.R(isa.R2)).
		Shl(isa.R(isa.R1), isa.Imm(6)).
		Add(isa.R(isa.R1), isa.Imm(int64(sharedBase)))
	ab.BeginAttack().
		Label("flush").
		Clflush(isa.Mem(isa.R1, 0)).
		EndAttack()
	ab.Mov(isa.R(isa.R3), isa.Imm(30)).
		Label("wait").
		Dec(isa.R(isa.R3)).
		Jne("wait")
	ab.BeginAttack().
		Label("reload").
		Rdtscp(isa.R4).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Rdtscp(isa.R5).
		Sub(isa.R(isa.R5), isa.R(isa.R4)).
		EndAttack()
	ab.Lea(isa.R6, isa.MemIdx(isa.RegNone, isa.R2, 8, int64(resBase))).
		Mov(isa.Mem(isa.R6, 0), isa.R(isa.R5))
	ab.Inc(isa.R(isa.R2)).
		Cmp(isa.R(isa.R2), isa.Imm(numLines)).
		Jl("lines")
	ab.Dec(isa.R(isa.R7)).
		Jne("round").
		Hlt()
	return ab.MustBuild(), victim
}

func TestPipelineOnFlushReload(t *testing.T) {
	attack, victim := miniFlushReload()
	m, err := Build(attack, victim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PotentialBBs) == 0 {
		t.Fatal("no potential attack-relevant blocks found")
	}
	if len(m.RelevantBBs) == 0 {
		t.Fatal("cache-set overlap filtering removed everything")
	}
	if len(m.RelevantBBs) > len(m.PotentialBBs) {
		t.Error("filtering must not add blocks")
	}
	// The ground-truth flush and reload blocks must be identified.
	identified := make(map[uint64]bool)
	for _, l := range m.IdentifiedBBs() {
		identified[l] = true
	}
	for _, gt := range m.CFG.GroundTruthAttackBlocks() {
		if !identified[gt] {
			t.Errorf("ground-truth attack block %#x not identified", gt)
		}
	}
	// The BBS must be ordered by first execution and contain CSTs with
	// real cache activity.
	if m.BBS.Len() == 0 {
		t.Fatal("empty CST-BBS")
	}
	anyDelta := false
	for i := 1; i < m.BBS.Len(); i++ {
		if m.BBS.Seq[i-1].FirstCycle > m.BBS.Seq[i].FirstCycle &&
			m.BBS.Seq[i].FirstCycle != 0 {
			// Only executed blocks are time-ordered; path-restored blocks
			// trail behind.
			if m.BBS.Seq[i].HPCValue > 0 {
				t.Error("BBS not ordered by first execution")
			}
		}
		if m.BBS.Seq[i].Delta() > 0 {
			anyDelta = true
		}
	}
	if !anyDelta {
		t.Error("no CST in the BBS changes the cache state")
	}
	// Each CST carries a normalized instruction sequence.
	for _, c := range m.BBS.Seq {
		if len(c.NormInsns) == 0 {
			t.Errorf("block %#x has no normalized instructions", c.Leader)
		}
	}
}

func TestPipelineReducesBlocks(t *testing.T) {
	attack, victim := miniFlushReload()
	m, err := Build(attack, victim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, total := len(m.IdentifiedBBs()), m.CFG.NumBlocks(); got >= total {
		t.Errorf("no reduction: identified %d of %d blocks", got, total)
	}
}

func TestPipelineBenignProgram(t *testing.T) {
	// A pure compute loop over a tiny working set: it has cache traffic
	// (cold misses) but no flush/reload-style multi-block set reuse
	// beyond its own accesses, so its model is small and its CSTs bland.
	b := isa.NewBuilder("benign", 0x400000)
	buf := b.Bytes("buf", 256, false)
	b.Mov(isa.R(isa.R0), isa.Imm(0)).
		Mov(isa.R(isa.R2), isa.Imm(0)).
		Label("loop").
		Mov(isa.R(isa.R1), isa.MemIdx(isa.R3, isa.R0, 8, int64(buf))).
		Add(isa.R(isa.R2), isa.R(isa.R1)).
		Inc(isa.R(isa.R0)).
		Cmp(isa.R(isa.R0), isa.Imm(32)).
		Jl("loop").
		Hlt()
	p := b.MustBuild()
	m, err := Build(p, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.BBS == nil {
		t.Fatal("benign model must still produce a BBS value")
	}
	// A benign program's model must be small.
	if m.BBS.Len() > m.CFG.NumBlocks() {
		t.Error("model larger than program")
	}
}

func TestBuildRejectsBadPrograms(t *testing.T) {
	if _, err := Build(nil, nil, DefaultConfig()); err == nil {
		t.Error("nil program must fail")
	}
	bad := &isa.Program{Name: "bad"}
	if _, err := Build(bad, nil, DefaultConfig()); err == nil {
		t.Error("invalid program must fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	d := c.withDefaults()
	if d.MeasureCache.Sets == 0 || d.MaxPathsPerPair == 0 || d.MaxPathLen == 0 || d.MaxWeight == 0 {
		t.Errorf("defaults not applied: %+v", d)
	}
}

func TestModelDeterminism(t *testing.T) {
	attack, victim := miniFlushReload()
	build := func() *Model {
		m, err := Build(attack, victim, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	if a.BBS.Len() != b.BBS.Len() {
		t.Fatalf("nondeterministic BBS length: %d vs %d", a.BBS.Len(), b.BBS.Len())
	}
	for i := range a.BBS.Seq {
		x, y := a.BBS.Seq[i], b.BBS.Seq[i]
		if x.Leader != y.Leader || x.Before != y.Before || x.After != y.After {
			t.Fatalf("CST %d differs between runs", i)
		}
	}
}

func TestPathWeight(t *testing.T) {
	hpc := map[uint64]uint64{2: 4, 3: 8}
	if got := pathWeight([]uint64{1, 5}, hpc, 100); got != 100 {
		t.Errorf("direct edge weight = %v, want MAX", got)
	}
	if got := pathWeight([]uint64{1, 2, 3, 5}, hpc, 100); got != 6 {
		t.Errorf("interior avg = %v, want 6", got)
	}
	if got := pathWeight([]uint64{1, 9, 5}, hpc, 100); got != 0 {
		t.Errorf("unknown interior = %v, want 0", got)
	}
}

func TestBuildUsesExecConfig(t *testing.T) {
	attack, victim := miniFlushReload()
	cfg := DefaultConfig()
	cfg.Exec = exec.DefaultConfig()
	cfg.Exec.MaxRetired = 50 // far too small to finish
	m, err := Build(attack, victim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated run: model may be tiny but must not error.
	if m == nil {
		t.Fatal("nil model")
	}
}
