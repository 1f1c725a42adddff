package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/baseline"
	"repro/internal/benign"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mutate"
)

// The whole pipeline must stay total: arbitrary mutated/obfuscated
// corpus programs and arbitrary benign programs model without error and
// produce structurally valid results.
func TestPipelineTotalOverRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := DefaultConfig()
	cfg.Exec = exec.DefaultConfig()
	cfg.Exec.MaxRetired = 150_000

	check := func(name string, m *Model, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.BBS == nil {
			t.Fatalf("%s: nil BBS", name)
		}
		for _, c := range m.BBS.Seq {
			if c.Before.AO+c.Before.IO > 1.0000001 || c.After.AO+c.After.IO > 1.0000001 {
				t.Errorf("%s: occupancy out of range: %+v", name, c)
			}
			if c.Delta() < 0 || c.Delta() > 1 {
				t.Errorf("%s: delta out of range: %v", name, c.Delta())
			}
		}
	}

	names := attacks.Names()
	for i := 0; i < 8; i++ {
		base, err := attacks.ByName(names[rng.Intn(len(names))], attacks.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var prog = base.Program
		switch rng.Intn(3) {
		case 0:
			prog, err = mutate.Mutate(prog, mutate.LightConfig(rng.Int63()))
		case 1:
			prog, err = mutate.Mutate(prog, mutate.ObfuscationConfig(rng.Int63()))
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(prog, base.Victim, cfg)
		check(prog.Name, m, err)
	}

	for _, kind := range benign.Kinds() {
		for i := 0; i < 3; i++ {
			prog, err := benign.Random(kind, rng)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Build(prog, nil, cfg)
			check(prog.Name, m, err)
		}
	}
}

// Modeling must be independent of whether the trace comes from Build's
// own machine or a caller-provided one with identical configuration.
// Build's private run has no event sink while the caller's streams
// every event into the baselines' Recorder, so this also pins that
// attaching the sink never perturbs the model: for every PoC the two
// models are identical in every field.
func TestBuildFromTraceMatchesBuild(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, attacks.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Build(poc.Program, poc.Victim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		machine, err := exec.NewMachine(cfg.Exec, poc.Program, poc.Victim)
		if err != nil {
			t.Fatal(err)
		}
		llc := machine.Hierarchy().LLC().Config()
		rec := baseline.NewRecorder(llc)
		tr, err := machine.RunEvents(rec.Feed)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.SetTrace) == 0 {
			t.Fatalf("%s: the caller's run recorded no set trace", name)
		}
		viaTrace, err := BuildFromTrace(poc.Program, tr, llc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, viaTrace) {
			t.Errorf("%s: Build and BuildFromTrace models differ", name)
		}
	}
}

func TestBuildFromTraceErrors(t *testing.T) {
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	if _, err := BuildFromTrace(nil, nil, DefaultMeasureCache(), DefaultConfig()); err == nil {
		t.Error("nil program must fail")
	}
	if _, err := BuildFromTrace(poc.Program, nil, DefaultMeasureCache(), DefaultConfig()); err == nil {
		t.Error("nil trace must fail")
	}
}

// diamondProgram is a hostile program for Algorithm 1: blocks b and a
// both load buf, so they are the only attack-relevant blocks, b jumps to
// a, and a is followed by a chain of k je diamonds that ends in hlt. The
// chain holds 2^k paths, none of which leads back to b.
func diamondProgram(k int) string {
	var src strings.Builder
	src.WriteString(".data buf 64\nb:\n  mov r0, [buf]\n  jmp a\na:\n  mov r1, [buf]\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&src, "  cmp r1, 0\n  je j%d\n  nop\nj%d:\n", i, i)
	}
	src.WriteString("  hlt\n")
	return src.String()
}

// The path walk from a towards b finds nothing, so it must cost nothing:
// 31 diamonds give paths of 63 blocks, within the default 64-block
// bound, and an unpruned walk would explore all 2^31 of them.
func TestDeadEndDiamondsModelFast(t *testing.T) {
	prog, err := isa.Parse("diamonds", diamondProgram(31))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		m   *Model
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := Build(prog, nil, DefaultConfig())
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.m.RelevantBBs) != 2 {
			t.Fatalf("relevant blocks %#x, want b and a", r.m.RelevantBBs)
		}
		if got := r.m.AttackGraph.Edges(); len(got) != 1 {
			t.Errorf("attack graph edges %v, want only b->a", got)
		}
	case <-time.After(time.Second):
		t.Fatal("modeling the 31-diamond program took over 1s")
	}
}
