package scaguard

// The golden models test pins every intermediate artefact of attack
// behavior modeling for a fixed corpus: the recovered CFG (leaders and
// edges), the potential, relevant and identified attack-relevant blocks,
// the attack-relevant graph's edges, the per-block HPC values and line
// sets, and every field of the flattened CST-BBS. It sits between the
// golden traces (the simulator's contract) and the golden verdicts (the
// end result): a faster cfg/graph/model implementation must reproduce
// each artefact exactly, not only the verdict it leads to.
//
// Regenerate after an intentional modeling change with:
//
//	go test -run Golden -update .

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/attacks"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/window"
)

const goldenModelsPath = "testdata/golden_models.json"

// goldenModel is the fingerprint of one model build: the sizes verbatim
// and one SHA-256 digest per artefact, so a mismatch names the stage
// that diverged.
type goldenModel struct {
	Target      string `json:"target"`
	Blocks      int    `json:"blocks"`
	Edges       int    `json:"edges"`
	Potential   int    `json:"potential"`
	Relevant    int    `json:"relevant"`
	Identified  int    `json:"identified"`
	BBSLen      int    `json:"bbs_len"`
	TimerReads  uint64 `json:"timer_reads"`
	TraceCycles uint64 `json:"trace_cycles"`
	CFG         string `json:"cfg"`
	BBs         string `json:"bbs"`
	AttackGraph string `json:"attack_graph"`
	HPCByBB     string `json:"hpc_by_bb"`
	MemLines    string `json:"mem_lines"`
	CSTBBS      string `json:"cst_bbs"`
}

type modelTarget struct {
	name string
	// Exactly one of the two ways to obtain the model is set: a full
	// model.Build of prog/victim, or a prebuilt model (window builds).
	prog, victim *isa.Program
	built        *model.Model
}

// modelCorpus is the verdict corpus (every PoC, the hand-written
// programs, one benign program per kind), a slice of the standard
// dataset, and the WindowBuilder models of every non-empty window of
// one watched Flush+Reload run.
func modelCorpus(t *testing.T) []modelTarget {
	t.Helper()
	var out []modelTarget
	for _, g := range goldenCorpus(t) {
		out = append(out, modelTarget{name: g.name, prog: g.prog, victim: g.victim})
	}
	ds, err := dataset.Standard(dataset.Config{PerClass: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ds.Samples {
		if i%2 == 1 {
			out = append(out, modelTarget{name: "dataset:" + s.Name, prog: s.Program, victim: s.Victim})
		}
	}
	return append(out, windowModels(t)...)
}

// windowModels replays the event log of one Flush+Reload run through
// model.WindowBuilder over the sliding windows the online detector uses
// by default.
func windowModels(t *testing.T) []modelTarget {
	t.Helper()
	poc := attacks.FlushReloadMastik(attacks.DefaultParams())
	cfg := exec.DefaultConfig()
	cfg.RecordEvents = true
	m, err := exec.NewMachine(cfg, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	wb, err := model.NewWindowBuilder(poc.Program, m.Hierarchy().LLC().Config(), model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out []modelTarget
	for start := uint64(0); start < tr.Cycles; start += window.DefaultStride {
		end := start + window.DefaultSize
		tb := exec.NewTraceBuilder(poc.Program)
		n := 0
		for _, ev := range tr.Events {
			if ev.Cycle >= start && ev.Cycle < end {
				tb.Apply(ev)
				n++
			}
		}
		if n == 0 {
			continue
		}
		wm, err := wb.Build(context.Background(), tb.Trace(end))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, modelTarget{name: fmt.Sprintf("window:%s@%d", poc.Name, start), built: wm})
	}
	return out
}

func modelFingerprint(name string, m *model.Model) goldenModel {
	c := m.CFG
	edges := c.G.Edges()
	ident := m.IdentifiedBBs()
	agEdges := m.AttackGraph.Edges()
	g := goldenModel{
		Target:      name,
		Blocks:      c.NumBlocks(),
		Edges:       len(edges),
		Potential:   len(m.PotentialBBs),
		Relevant:    len(m.RelevantBBs),
		Identified:  len(ident),
		BBSLen:      m.BBS.Len(),
		TimerReads:  m.BBS.TimerReads,
		TraceCycles: m.TraceCycles,
	}

	h := sha256.New()
	for _, bb := range c.Ordered() {
		putU64(h, bb.Leader, uint64(len(bb.Insns)), bb.End())
	}
	putU64(h, c.EntryLeader())
	for _, e := range edges {
		putU64(h, e.From, e.To)
	}
	g.CFG = digest(h)

	h = sha256.New()
	putU64(h, uint64(len(m.PotentialBBs)))
	putU64(h, m.PotentialBBs...)
	putU64(h, uint64(len(m.RelevantBBs)))
	putU64(h, m.RelevantBBs...)
	g.BBs = digest(h)

	h = sha256.New()
	putU64(h, ident...)
	for _, e := range agEdges {
		putU64(h, e.From, e.To)
	}
	g.AttackGraph = digest(h)

	h = sha256.New()
	for _, l := range sortedKeys(m.HPCByBB) {
		putU64(h, l, m.HPCByBB[l])
	}
	g.HPCByBB = digest(h)

	h = sha256.New()
	for _, l := range sortedKeys(m.MemLinesByBB) {
		lines := m.MemLinesByBB[l]
		putU64(h, l, uint64(len(lines)))
		putU64(h, lines...)
	}
	g.MemLines = digest(h)

	h = sha256.New()
	h.Write([]byte(m.BBS.Name))
	putU64(h, m.BBS.TimerReads, uint64(len(m.BBS.Seq)))
	for _, s := range m.BBS.Seq {
		putU64(h, s.Leader, s.FirstCycle, s.HPCValue,
			math.Float64bits(s.Before.AO), math.Float64bits(s.Before.IO),
			math.Float64bits(s.After.AO), math.Float64bits(s.After.IO),
			uint64(len(s.NormInsns)))
		for _, n := range s.NormInsns {
			h.Write([]byte(n))
			h.Write([]byte{0})
		}
	}
	g.CSTBBS = digest(h)
	return g
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestGoldenModels(t *testing.T) {
	var got []goldenModel
	for _, tgt := range modelCorpus(t) {
		m := tgt.built
		if m == nil {
			var err error
			if m, err = model.Build(tgt.prog, tgt.victim, model.DefaultConfig()); err != nil {
				t.Fatalf("%s: %v", tgt.name, err)
			}
		}
		got = append(got, modelFingerprint(tgt.name, m))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenModelsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d model fingerprints to %s", len(got), goldenModelsPath)
		return
	}
	data, err := os.ReadFile(goldenModelsPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with `go test -run Golden -update .`): %v", err)
	}
	var want []goldenModel
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]goldenModel, len(want))
	for _, w := range want {
		wantBy[w.Target] = w
	}
	if len(got) != len(want) {
		t.Errorf("corpus size changed: got %d models, golden has %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := wantBy[g.Target]
		if !ok {
			t.Errorf("%s: not in golden file (new corpus entry? regenerate with -update)", g.Target)
			continue
		}
		if g != w {
			t.Errorf("%s: %s", g.Target, fieldDiff(g, w))
		}
	}
}
