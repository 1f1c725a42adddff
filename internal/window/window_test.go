package window_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/cache"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/window"
)

// sharedRepo holds the paper's 4-entry deployment repository; modeling
// the PoCs runs the simulator, so it is built once.
var sharedRepo *detect.Repository

func repo(t testing.TB) *detect.Repository {
	t.Helper()
	if sharedRepo == nil {
		p := attacks.DefaultParams()
		pocs := []attacks.PoC{
			attacks.FlushReloadIAIK(p),
			attacks.PrimeProbeIAIK(p),
			attacks.SpectreFRIdea(p),
			attacks.SpectrePPTrippel(p),
		}
		r, err := detect.BuildRepository(pocs, model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedRepo = r
	}
	return sharedRepo
}

// collect runs a program with event recording and returns the trace
// plus the LLC configuration it ran under.
func collect(t testing.TB, prog, victim *isa.Program) (*exec.Trace, cache.Config) {
	t.Helper()
	cfg := exec.DefaultConfig()
	cfg.RecordEvents = true
	m, err := exec.NewMachine(cfg, prog, victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if tr.EventsTruncated {
		t.Fatal("event log truncated")
	}
	return tr, m.Hierarchy().LLC().Config()
}

// shiftEvents returns a copy of evs with every PC moved by pcDelta and
// every cycle moved by cycleDelta — the trace-synthesis primitive the
// scenario tests compose. Data line addresses are left alone: only code
// is relocated.
func shiftEvents(evs []exec.Event, pcDelta, cycleDelta uint64) []exec.Event {
	out := make([]exec.Event, len(evs))
	for i, ev := range evs {
		ev.PC += pcDelta
		ev.Cycle += cycleDelta
		out[i] = ev
	}
	return out
}

// relocate shifts a program's code (addresses, entry, direct branch
// targets) by delta. Only direct branches are supported — enough for
// the PoC corpus used here; an indirect branch would need runtime
// values rewritten too, so it fails loudly.
func relocate(t *testing.T, p *isa.Program, delta uint64) *isa.Program {
	t.Helper()
	out := &isa.Program{Name: p.Name + "-reloc", Entry: p.Entry + delta}
	for _, in := range p.Insns {
		if in.Op.IsBranch() && in.Op != isa.RET && in.Dst.Kind != isa.OpImm {
			t.Fatalf("relocate: indirect %s at 0x%x unsupported", in.Op, in.Addr)
		}
		if _, ok := in.BranchTarget(); ok {
			in.Dst.Disp += int64(delta)
		}
		in.Addr += delta
		out.Insns = append(out.Insns, in)
	}
	return out
}

// merge concatenates the instruction streams of several programs into
// one (address ranges must be disjoint), dropping data segments —
// trace-based modeling never reads them.
func merge(t *testing.T, name string, entry uint64, parts ...*isa.Program) *isa.Program {
	t.Helper()
	out := &isa.Program{Name: name, Entry: entry}
	for _, p := range parts {
		out.Insns = append(out.Insns, p.Insns...)
	}
	sort.Slice(out.Insns, func(i, j int) bool { return out.Insns[i].Addr < out.Insns[j].Addr })
	if err := out.Validate(); err != nil {
		t.Fatalf("merge: %v", err)
	}
	return out
}

// postHoc classifies the full synthetic event stream the way the
// offline pipeline would: replay everything into one trace, model it
// whole, classify once.
func postHoc(t *testing.T, det *detect.Detector, prog *isa.Program, llc cache.Config, evs []exec.Event) detect.Result {
	t.Helper()
	tb := exec.NewTraceBuilder(prog)
	for _, ev := range evs {
		tb.Apply(ev)
	}
	tr := tb.Trace(evs[len(evs)-1].Cycle + 1)
	m, err := model.BuildFromTrace(prog, tr, llc, det.ModelCfg)
	if err != nil {
		t.Fatal(err)
	}
	return det.ClassifyBBS(m.BBS)
}

// replayEvents drives a synthetic event stream through a windowed
// detector, collecting the verdict stream.
func replayEvents(t *testing.T, det *detect.Detector, prog *isa.Program, llc cache.Config, evs []exec.Event, cfg window.Config) ([]window.Verdict, window.Outcome) {
	t.Helper()
	var verdicts []window.Verdict
	d, err := window.New(det, prog, llc, cfg, func(v window.Verdict) { verdicts = append(verdicts, v) })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, ev := range evs {
		if err := d.Feed(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	out, err := d.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return verdicts, out
}

// TestFlagsInFlightAttack pins the headline property: a replayed
// Flush+Reload is flagged malicious before its trace ends, and the
// latency-to-detection metric is populated.
func TestFlagsInFlightAttack(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	tr, llc := collect(t, poc.Program, poc.Victim)
	out, err := window.Replay(context.Background(), det, poc.Program, llc, tr, window.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatal("in-flight Flush+Reload not detected")
	}
	if out.DetectionCycle >= tr.Cycles {
		t.Fatalf("detection at cycle %d, not before trace end %d", out.DetectionCycle, tr.Cycles)
	}
	lat, ok := out.LatencyToDetection()
	if !ok || lat == 0 || lat > tr.Cycles {
		t.Fatalf("latency-to-detection = %d, %v", lat, ok)
	}
	if got, want := out.Final.Predicted, attacks.Family("FR-F"); got != want {
		t.Fatalf("final = %s, want %s", got, want)
	}
}

// scanConfigs returns the three detector configurations: exact flat
// scan, the pruned (-fast) scan that runs the lower-bound cascade, and
// the medoid-prototype index.
func scanConfigs() map[string]scan.Config {
	return map[string]scan.Config{
		"exact":   {},
		"cascade": {Prune: true},
		"indexed": {Prune: true, Index: true},
	}
}

// TestDifferentialFullTrace pins agreement between the windowed final
// state and post-hoc classification, across the PoC corpus and all
// three scan configurations. Two layers:
//
//   - one window covering the whole trace must reproduce the post-hoc
//     prediction and best match exactly (the window path adds nothing
//     but slicing, and a full-trace slice is the identity);
//   - the default multi-window geometry must agree on the family.
func TestDifferentialFullTrace(t *testing.T) {
	p := attacks.DefaultParams()
	for name, sc := range scanConfigs() {
		t.Run(name, func(t *testing.T) {
			det := detect.NewDetector(repo(t))
			det.Scan = sc
			for _, poc := range []attacks.PoC{
				attacks.FlushReloadIAIK(p),
				attacks.PrimeProbeIAIK(p),
				attacks.SpectreFRIdea(p),
				attacks.SpectrePPTrippel(p),
			} {
				tr, llc := collect(t, poc.Program, poc.Victim)
				want := postHoc(t, det, poc.Program, llc, tr.Events)

				one := window.Config{Size: tr.Cycles + 1}
				verdicts, out := replayEvents(t, det, poc.Program, llc, tr.Events, one)
				if len(verdicts) != 1 {
					t.Fatalf("%s: %d windows for a full-trace window", poc.Name, len(verdicts))
				}
				if got := out.Final; got.Predicted != want.Predicted || got.Best != want.Best {
					t.Errorf("%s: full-window verdict %s/%v, post-hoc %s/%v",
						poc.Name, got.Predicted, got.Best, want.Predicted, want.Best)
				}

				_, multi := replayEvents(t, det, poc.Program, llc, tr.Events, window.Config{})
				if multi.Final.Predicted != want.Predicted {
					t.Errorf("%s: windowed family %s, post-hoc %s",
						poc.Name, multi.Final.Predicted, want.Predicted)
				}
				if !multi.Detected {
					t.Errorf("%s: not detected under default geometry", poc.Name)
				}
			}
		})
	}
}

// TestDeterministicStream pins the acceptance criterion that the
// verdict stream is a pure function of (trace, config): two replays of
// the same log produce identical streams.
func TestDeterministicStream(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.PrimeProbeIAIK(p)
	tr, llc := collect(t, poc.Program, poc.Victim)
	cfg := window.Config{Size: 6000, Stride: 3000, QuietGap: 12000}
	v1, o1 := replayEvents(t, det, poc.Program, llc, tr.Events, cfg)
	v2, o2 := replayEvents(t, det, poc.Program, llc, tr.Events, cfg)
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("verdict streams diverge between replays")
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("outcomes diverge between replays")
	}
}

// TestAttackStartsMidTrace: a benign crypto workload runs first, the
// Flush+Reload (relocated clear of the benign code range) begins only
// after it. The windowed detector must agree with post-hoc on the full
// trace and must raise the alarm only after the attack's events begin.
func TestAttackStartsMidTrace(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)

	tmpl := benign.Templates(benign.KindCrypto)[0]
	bprog, err := benign.Generate(benign.Spec{Kind: benign.KindCrypto, Template: tmpl, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	btr, llc := collect(t, bprog, nil)
	atr, _ := collect(t, poc.Program, poc.Victim)

	const delta = 0x10_0000
	reloc := relocate(t, poc.Program, delta)
	merged := merge(t, "benign-then-fr", bprog.Entry, bprog, reloc)
	attackStart := btr.Cycles + 1
	evs := append(append([]exec.Event{}, btr.Events...), shiftEvents(atr.Events, delta, attackStart)...)

	want := postHoc(t, det, merged, llc, evs)
	if want.Predicted == attacks.FamilyBenign {
		t.Fatal("post-hoc missed the embedded attack; scenario is vacuous")
	}
	verdicts, out := replayEvents(t, det, merged, llc, evs, window.Config{})
	if out.Final.Predicted != want.Predicted {
		t.Fatalf("windowed family %s, post-hoc %s", out.Final.Predicted, want.Predicted)
	}
	if !out.Detected {
		t.Fatal("mid-trace attack not detected")
	}
	if out.DetectionCycle <= attackStart {
		t.Fatalf("detection cycle %d before the attack began at %d", out.DetectionCycle, attackStart)
	}
	// Every window that closed before the attack began must be benign.
	for _, v := range verdicts {
		if v.End <= attackStart && v.Malicious() {
			t.Fatalf("window [%d,%d) flagged before the attack started at %d", v.Start, v.End, attackStart)
		}
	}
}

// TestQuietBetweenBursts: two Flush+Reload bursts separated by a long
// silent gap. The collapsed quiet verdict must appear between them, and
// the stream must agree with post-hoc on the whole trace.
func TestQuietBetweenBursts(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	tr, llc := collect(t, poc.Program, poc.Victim)

	const gap = 200_000
	second := shiftEvents(tr.Events, 0, tr.Cycles+gap)
	evs := append(append([]exec.Event{}, tr.Events...), second...)

	want := postHoc(t, det, poc.Program, llc, evs)
	cfg := window.Config{QuietGap: 50_000}
	verdicts, out := replayEvents(t, det, poc.Program, llc, evs, cfg)
	if out.Final.Predicted != want.Predicted {
		t.Fatalf("windowed family %s, post-hoc %s", out.Final.Predicted, want.Predicted)
	}
	var quietGaps, hitsBefore, hitsAfter int
	for _, v := range verdicts {
		switch {
		case v.Reason == window.ReasonQuietGap:
			quietGaps++
			if v.Events != 0 {
				t.Fatalf("quiet-gap verdict carries %d events", v.Events)
			}
			if v.Malicious() {
				t.Fatal("quiet-gap verdict flagged malicious")
			}
			if v.End-v.Start < cfg.QuietGap {
				t.Fatalf("collapsed span [%d,%d) shorter than QuietGap %d", v.Start, v.End, cfg.QuietGap)
			}
		case v.Malicious() && v.End <= tr.Cycles+1:
			hitsBefore++
		case v.Malicious():
			hitsAfter++
		}
	}
	if quietGaps == 0 {
		t.Fatal("no collapsed quiet-gap verdict for a 200k-cycle silence")
	}
	if hitsBefore == 0 || hitsAfter == 0 {
		t.Fatalf("hits before/after gap = %d/%d; want both bursts flagged", hitsBefore, hitsAfter)
	}
	if out.Quiet == 0 {
		t.Fatal("outcome counted no quiet verdicts")
	}
}

// TestTwoAttacksOneTrace: a Flush+Reload burst followed by a relocated
// Prime+Probe burst in one trace. Per-window classification must
// attribute each burst to its own family — the post-hoc pipeline, which
// models the trace whole, structurally cannot do this.
func TestTwoAttacksOneTrace(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	fr := attacks.FlushReloadIAIK(p)
	pp := attacks.PrimeProbeIAIK(p)

	frTr, llc := collect(t, fr.Program, fr.Victim)
	ppTr, _ := collect(t, pp.Program, pp.Victim)

	const delta = 0x10_0000
	ppReloc := relocate(t, pp.Program, delta)
	merged := merge(t, "fr-then-pp", fr.Program.Entry, fr.Program, ppReloc)
	ppStart := frTr.Cycles + 1
	evs := append(append([]exec.Event{}, frTr.Events...), shiftEvents(ppTr.Events, delta, ppStart)...)

	verdicts, out := replayEvents(t, det, merged, llc, evs, window.Config{})
	if !out.Detected {
		t.Fatal("neither attack detected")
	}
	// Thin windows that slice through the middle of a round carry only a
	// sliver of the attack's structure and may score a neighboring
	// family marginally higher; the windows that capture a full round
	// score their own family distinctly higher (the same aggregation
	// Outcome.Final uses). So the per-burst claim is about the
	// best-scoring window of each burst, not every sliver.
	var bestFR, bestPP window.Verdict
	for _, v := range verdicts {
		if !v.Malicious() {
			continue
		}
		if v.End <= ppStart && v.Result.Best.Score > bestFR.Result.Best.Score {
			bestFR = v
		}
		if v.Start >= ppStart && v.Result.Best.Score > bestPP.Result.Best.Score {
			bestPP = v
		}
	}
	if bestFR.Result.Predicted != fr.Family {
		t.Errorf("best FR-burst window [%d,%d) predicted %s, want %s",
			bestFR.Start, bestFR.End, bestFR.Result.Predicted, fr.Family)
	}
	if bestPP.Result.Predicted != pp.Family {
		t.Errorf("best PP-burst window [%d,%d) predicted %s, want %s",
			bestPP.Start, bestPP.End, bestPP.Result.Predicted, pp.Family)
	}
}

// TestBoundarySplitsAttack: window boundaries that slice straight
// through the attack's rounds (size and stride chosen so no window
// aligns with the burst) must not lose the detection, and the final
// verdict must still agree with post-hoc.
func TestBoundarySplitsAttack(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	tr, llc := collect(t, poc.Program, poc.Victim)
	want := postHoc(t, det, poc.Program, llc, tr.Events)

	// A prime-sized stride guarantees misalignment with any periodic
	// structure in the trace; size ≈ half the trace forces every window
	// boundary to cut through attack activity.
	cfg := window.Config{Size: tr.Cycles/2 + 1, Stride: 4099}
	_, out := replayEvents(t, det, poc.Program, llc, tr.Events, cfg)
	if !out.Detected {
		t.Fatal("split attack not detected")
	}
	if out.Final.Predicted != want.Predicted {
		t.Fatalf("windowed family %s, post-hoc %s", out.Final.Predicted, want.Predicted)
	}
}
