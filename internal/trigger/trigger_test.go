package trigger

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/hpc"
	"repro/internal/isa"
	"repro/internal/model"
)

const testMagic = 0xCAFE

func disguisedFR(t *testing.T) attacks.PoC {
	t.Helper()
	poc, err := Disguise(attacks.FlushReloadIAIK(attacks.DefaultParams()), testMagic, 2)
	if err != nil {
		t.Fatal(err)
	}
	return poc
}

func TestDisguiseValidates(t *testing.T) {
	poc := disguisedFR(t)
	if err := poc.Program.Validate(); err != nil {
		t.Fatal(err)
	}
	if poc.Family != attacks.FamilyFR {
		t.Errorf("family = %s", poc.Family)
	}
	// The gate must precede the original code.
	if poc.Program.Entry >= attacks.AttackerCodeBase {
		t.Errorf("entry %#x not in the gate region", poc.Program.Entry)
	}
}

func TestDisguiseErrors(t *testing.T) {
	if _, err := Disguise(attacks.PoC{}, 1, 1); err == nil {
		t.Error("nil program must fail")
	}
	if _, err := Disguise(attacks.FlushReloadIAIK(attacks.DefaultParams()), 1, 0); err == nil {
		t.Error("zero magic bytes must fail")
	}
	if _, err := Disguise(attacks.FlushReloadIAIK(attacks.DefaultParams()), 1, 9); err == nil {
		t.Error("nine magic bytes must fail")
	}
}

// Without the trigger input the disguised program runs only the decoy:
// its behavior model is benign.
func TestDisguisedAttackHidesByDefault(t *testing.T) {
	poc := disguisedFR(t)
	e := NewExplorer()

	covWrong, err := coverageOf(e, poc.Program, poc.Victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	covRight, err := coverageOf(e, poc.Program, poc.Victim, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if covRight <= covWrong {
		t.Fatalf("trigger input must unlock more coverage: %d vs %d", covRight, covWrong)
	}

	// Model on the default input: benign verdict.
	_, tr, err := e.run(poc.Program, poc.Victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.BuildFromTrace(poc.Program, tr, cache.DefaultHierarchyConfig().LLC, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := detectorForTest(t)
	if res := d.ClassifyBBS(m.BBS); res.Predicted != attacks.FamilyBenign {
		t.Errorf("disguised attack with wrong input classified %s", res.Predicted)
	}
}

// The headline test for the future-work extension: coverage-guided
// exploration finds the trigger and the model built on the best input is
// classified as the hidden attack's family.
func TestExplorerUnmasksDisguisedAttack(t *testing.T) {
	poc := disguisedFR(t)
	e := NewExplorer()
	res, err := e.Explore(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestInput&0xFFFF != testMagic {
		t.Fatalf("explorer missed the trigger: best input %#x after %d runs", res.BestInput, res.Runs)
	}
	if len(res.Corpus) < 2 {
		t.Errorf("corpus should record the byte-by-byte progress: %v", res.Corpus)
	}

	m, err := model.BuildFromTrace(poc.Program, res.BestTrace, cache.DefaultHierarchyConfig().LLC, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := detectorForTest(t)
	verdict := d.ClassifyBBS(m.BBS)
	if verdict.Predicted != attacks.FamilyFR {
		t.Errorf("unmasked attack classified %s (best %s %.2f)",
			verdict.Predicted, verdict.Best.Name, verdict.Best.Score)
	}
}

func TestExplorerBudgetRespected(t *testing.T) {
	poc := disguisedFR(t)
	e := NewExplorer()
	e.Budget = 10
	e.DetBytes = 1
	res, err := e.Explore(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs > 10 {
		t.Errorf("runs = %d, budget 10", res.Runs)
	}
	if res.BestTrace == nil {
		t.Error("best trace must always be set")
	}
	if len(res.Covered) == 0 {
		t.Error("coverage must not be empty")
	}
}

func TestExplorerNilProgram(t *testing.T) {
	if _, err := NewExplorer().Explore(nil, nil); err == nil {
		t.Error("nil program must fail")
	}
}

func TestExplorerDeterministic(t *testing.T) {
	poc := disguisedFR(t)
	run := func() uint64 {
		e := NewExplorer()
		e.Budget = 40
		res, err := e.Explore(poc.Program, poc.Victim)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestInput
	}
	if run() != run() {
		t.Error("exploration must be deterministic under a fixed seed")
	}
}

var cachedDetector *detect.Detector

func detectorForTest(t *testing.T) *detect.Detector {
	t.Helper()
	if cachedDetector != nil {
		return cachedDetector
	}
	pocs := []attacks.PoC{
		attacks.FlushReloadIAIK(attacks.DefaultParams()),
		attacks.PrimeProbeIAIK(attacks.DefaultParams()),
	}
	repo, err := detect.BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedDetector = detect.NewDetector(repo)
	return cachedDetector
}

// coverageOf reports the block coverage of a single input, for
// before/after comparisons in evaluations.
func coverageOf(e *Explorer, prog, victim *isa.Program, input uint64) (int, error) {
	m, tr, err := e.run(prog, victim, input)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	return len(coverage(prog, tr)), nil
}

// traceCopy is a deep copy of everything a trace records.
type traceCopy struct {
	Insns                      []exec.InsnRecord
	Lines                      []exec.LineTouch
	Events                     []exec.Event
	Global                     hpc.Counts
	Retired, Transient, Cycles uint64
	Halted, EventsTruncated    bool
}

// copyTrace deep-copies a trace, line touches and event log included.
func copyTrace(tr *exec.Trace) traceCopy {
	return traceCopy{
		Insns:           slices.Clone(tr.Insns),
		Lines:           slices.Clone(tr.Lines(0, len(tr.Insns))),
		Events:          slices.Clone(tr.Events),
		Global:          tr.Global,
		Retired:         tr.Retired,
		Transient:       tr.Transient,
		Cycles:          tr.Cycles,
		Halted:          tr.Halted,
		EventsTruncated: tr.EventsTruncated,
	}
}

// TestBestTraceSurvivesExploration: the explorer releases every run's
// machine but the best one's, and later runs reuse the released
// machines, so BestTrace must still be the best input's own trace once
// exploration finishes. It is copied before the reference run, which
// could otherwise reuse a wrongly released best machine and rewrite
// BestTrace into a match.
func TestBestTraceSurvivesExploration(t *testing.T) {
	poc := disguisedFR(t)
	e := NewExplorer()
	e.Budget = 300
	res, err := e.Explore(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	best := copyTrace(res.BestTrace)
	m, ref, err := e.run(poc.Program, poc.Victim, res.BestInput)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if ref == res.BestTrace {
		t.Fatal("the reference run reused the machine whose trace is BestTrace")
	}
	if !reflect.DeepEqual(best, copyTrace(ref)) {
		t.Fatal("BestTrace differs from a fresh run of BestInput")
	}
}
