package model

import (
	"testing"

	"repro/internal/attacks"
	"repro/internal/graph"
	"repro/internal/mutate"
)

func execCounts(m map[uint64]uint64) func(uint64) uint64 {
	return func(n uint64) uint64 { return m[n] }
}

func TestStraightChainsMergesEqualCounts(t *testing.T) {
	// 1 -> 2 -> 3 with equal counts: one chain.
	g := graph.New(nil, []graph.Edge{{From: 1, To: 2}, {From: 2, To: 3}})
	chains := straightChains(g, execCounts(map[uint64]uint64{1: 5, 2: 5, 3: 5}))
	if len(chains) != 1 || len(chains[0]) != 3 {
		t.Fatalf("chains = %v", chains)
	}
}

func TestStraightChainsSplitsOnCountChange(t *testing.T) {
	// 1 -> 2 -> 3 where 2 executes more often (a loop body): split.
	g := graph.New(nil, []graph.Edge{{From: 1, To: 2}, {From: 2, To: 3}})
	chains := straightChains(g, execCounts(map[uint64]uint64{1: 1, 2: 10, 3: 1}))
	if len(chains) != 3 {
		t.Fatalf("chains = %v, want 3 singletons", chains)
	}
}

func TestStraightChainsSplitsOnBranch(t *testing.T) {
	// Diamond: 1 -> {2,3} -> 4; no merges across the branch/join.
	g := graph.New(nil, []graph.Edge{{From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4}})
	chains := straightChains(g, execCounts(map[uint64]uint64{1: 2, 2: 1, 3: 1, 4: 2}))
	if len(chains) != 4 {
		t.Fatalf("chains = %v, want 4 singletons", chains)
	}
}

func TestStraightChainsZeroCountNeverMerges(t *testing.T) {
	g := graph.New(nil, []graph.Edge{{From: 1, To: 2}})
	chains := straightChains(g, execCounts(map[uint64]uint64{}))
	if len(chains) != 2 {
		t.Fatalf("chains = %v, want 2 (zero counts must not merge)", chains)
	}
}

func TestStraightChainsCoversEveryNode(t *testing.T) {
	// 1 -> 2 -> 3 -> 1 is a cycle (the defensive path) and 9 is isolated.
	g := graph.New([]uint64{9}, []graph.Edge{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1}})
	chains := straightChains(g, execCounts(map[uint64]uint64{1: 1, 2: 1, 3: 1, 9: 1}))
	seen := map[uint64]int{}
	for _, c := range chains {
		for _, n := range c {
			seen[n]++
		}
	}
	for _, n := range []uint64{1, 2, 3, 9} {
		if seen[n] != 1 {
			t.Errorf("node %d appears %d times", n, seen[n])
		}
	}
}

func TestDedupSorted(t *testing.T) {
	got := dedupSorted([]uint64{5, 1, 5, 3, 1})
	want := []uint64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("dedup = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedup = %v", got)
		}
	}
	if out := dedupSorted(nil); len(out) != 0 {
		t.Error("empty input must stay empty")
	}
}

// The chain-merge invariant the E4 robustness relies on: an obfuscated
// variant's model length stays close to the original's.
func TestObfuscationKeepsModelCompact(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	orig, err := Build(poc.Program, poc.Victim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	grew := 0
	const trials = 4
	for seed := int64(0); seed < trials; seed++ {
		obf, err := mutate.Mutate(poc.Program, mutate.ObfuscationConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(obf, poc.Victim, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if m.BBS.Len() > orig.BBS.Len()*2 {
			grew++
		}
	}
	if grew > 1 {
		t.Errorf("chain merging failed to absorb junk splits in %d/%d trials", grew, trials)
	}
}

// Table-IV invariants over the full canonical corpus.
func TestIdentificationInvariantsAllPoCs(t *testing.T) {
	for _, poc := range attacks.All(attacks.DefaultParams()) {
		m, err := Build(poc.Program, poc.Victim, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", poc.Name, err)
		}
		bb := m.CFG.NumBlocks()
		iab := len(m.IdentifiedBBs())
		if iab > bb {
			t.Errorf("%s: IAB %d > BB %d", poc.Name, iab, bb)
		}
		if len(m.RelevantBBs) > len(m.PotentialBBs) {
			t.Errorf("%s: relevant > potential", poc.Name)
		}
		// Every relevant block is a node of the attack graph.
		nodes := make(map[uint64]bool)
		for _, n := range m.IdentifiedBBs() {
			nodes[n] = true
		}
		for _, r := range m.RelevantBBs {
			if !nodes[r] {
				t.Errorf("%s: relevant block %#x missing from attack graph", poc.Name, r)
			}
		}
		// BBS entries reference graph nodes and are time-ordered among
		// executed entries.
		for i, c := range m.BBS.Seq {
			if !nodes[c.Leader] {
				t.Errorf("%s: BBS[%d] leader %#x not in graph", poc.Name, i, c.Leader)
			}
		}
	}
}
