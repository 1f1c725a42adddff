package window_test

// Streaming pins: window.Watch feeds the detector straight from the
// simulator, window.Replay from a recorded log of the same run. Both
// drive Detector.Feed, so the verdict streams must be identical; these
// tests hold them to it and pin what only the streamed path does
// (stopping the simulation on cancellation, ignoring the log cap).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/scan"
	"repro/internal/window"
)

// sharedDefaultRepo holds the default 11-PoC repository of Table II.
var sharedDefaultRepo *detect.Repository

func defaultRepo(t testing.TB) *detect.Repository {
	t.Helper()
	if sharedDefaultRepo == nil {
		r, err := detect.BuildRepository(attacks.All(attacks.DefaultParams()), model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedDefaultRepo = r
	}
	return sharedDefaultRepo
}

// watchGeometries are the window geometries the differential runs
// under: the default, tumbling windows, and quiet-run collapsing.
var watchGeometries = map[string]window.Config{
	"default":  {},
	"tumbling": {Size: 4096, Stride: 4096},
	"quietgap": {QuietGap: 16384},
}

type watchCase struct {
	name         string
	prog, victim *isa.Program
}

// watchCases returns every canonical and extension PoC plus one benign
// program of each family.
func watchCases(t testing.TB) []watchCase {
	t.Helper()
	p := attacks.DefaultParams()
	var cases []watchCase
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, watchCase{poc.Name, poc.Program, poc.Victim})
	}
	for _, kind := range benign.Kinds() {
		prog, err := benign.Generate(benign.Spec{Kind: kind, Template: benign.Templates(kind)[0], Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, watchCase{prog.Name, prog, nil})
	}
	return cases
}

// streamed runs window.Watch and collects its verdict stream.
func streamed(t testing.TB, det *detect.Detector, prog, victim *isa.Program, ecfg exec.Config, cfg window.Config) ([]window.Verdict, window.Outcome) {
	t.Helper()
	var vs []window.Verdict
	out, err := window.Watch(context.Background(), det, prog, victim, ecfg, cfg, func(v window.Verdict) { vs = append(vs, v) })
	if err != nil {
		t.Fatalf("%s: watch: %v", prog.Name, err)
	}
	return vs, out
}

// replayed records the run's event log and replays it through
// window.Replay, collecting the verdict stream.
func replayed(t testing.TB, det *detect.Detector, prog, victim *isa.Program, ecfg exec.Config, cfg window.Config) ([]window.Verdict, window.Outcome) {
	t.Helper()
	ecfg.RecordEvents = true
	m, err := exec.NewMachine(ecfg, prog, victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	var vs []window.Verdict
	out, err := window.Replay(context.Background(), det, prog, m.Hierarchy().LLC().Config(), tr, cfg, func(v window.Verdict) { vs = append(vs, v) })
	if err != nil {
		t.Fatalf("%s: replay: %v", prog.Name, err)
	}
	return vs, out
}

// TestWatchMatchesReplay: streaming the events into the detector while
// the program runs must give exactly the verdicts and outcome of
// replaying the recorded log afterwards. Under Prune+Index the pruned
// match lists depend on scheduling, so only the verdicts, best matches
// and outcome counts are compared.
func TestWatchMatchesReplay(t *testing.T) {
	exact := detect.NewDetector(defaultRepo(t))
	fast := detect.NewDetector(defaultRepo(t))
	fast.Scan = scan.Config{Prune: true, Index: true}
	ecfg := exec.DefaultConfig()
	for _, c := range watchCases(t) {
		for gname, cfg := range watchGeometries {
			t.Run(c.name+"/"+gname, func(t *testing.T) {
				gotV, gotO := streamed(t, exact, c.prog, c.victim, ecfg, cfg)
				wantV, wantO := replayed(t, exact, c.prog, c.victim, ecfg, cfg)
				if len(gotV) == 0 || len(gotV) != gotO.Windows {
					t.Fatalf("watch emitted %d verdicts, outcome counts %d windows", len(gotV), gotO.Windows)
				}
				if !reflect.DeepEqual(gotV, wantV) {
					t.Fatalf("verdict streams differ: watch %d verdicts, replay %d", len(gotV), len(wantV))
				}
				if !reflect.DeepEqual(gotO, wantO) {
					t.Fatalf("outcomes differ:\nwatch  %+v\nreplay %+v", gotO, wantO)
				}

				gotV, gotO = streamed(t, fast, c.prog, c.victim, ecfg, cfg)
				wantV, wantO = replayed(t, fast, c.prog, c.victim, ecfg, cfg)
				if len(gotV) != len(wantV) {
					t.Fatalf("fast: watch emitted %d verdicts, replay %d", len(gotV), len(wantV))
				}
				for i := range gotV {
					g, w := gotV[i], wantV[i]
					if g.Start != w.Start || g.End != w.End || g.Events != w.Events || g.Reason != w.Reason ||
						g.Result.Predicted != w.Result.Predicted || g.Result.Best != w.Result.Best {
						t.Fatalf("fast: window %d differs:\nwatch  %+v\nreplay %+v", i, g, w)
					}
				}
				if outcomeCounts(gotO) != outcomeCounts(wantO) {
					t.Fatalf("fast: outcomes differ:\nwatch  %+v\nreplay %+v", outcomeCounts(gotO), outcomeCounts(wantO))
				}
			})
		}
	}
}

// outcomeCounts is the scheduling-independent part of an outcome.
func outcomeCounts(o window.Outcome) string {
	return fmt.Sprintf("windows=%d hits=%d quiet=%d errors=%d first=%d detected=%v@%d final=%s/%+v#%d",
		o.Windows, o.Hits, o.Quiet, o.Errors, o.FirstEventCycle, o.Detected, o.DetectionCycle,
		o.Final.Predicted, o.Final.Best, o.FinalWindow)
}

// TestWatchCancel: cancelling from emit after the first verdict must
// end Watch with context.Canceled, call emit no more, and stop the
// simulation. The program would otherwise run for days, so a Watch
// that kept simulating fails the deadline below. 64-cycle windows put
// quiet windows (an event gap over a cache miss) after the first
// verdict, which never reach the scan's own cancellation check.
func TestWatchCancel(t *testing.T) {
	det := detect.NewDetector(defaultRepo(t))
	p := attacks.DefaultParams()
	p.Rounds = 1 << 30
	poc := attacks.FlushReloadIAIK(p)
	ecfg := exec.DefaultConfig()
	ecfg.MaxRetired = 1 << 62
	for name, cfg := range map[string]window.Config{"default": {}, "64-cycle": {Size: 64}} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			emitted := 0
			type result struct {
				out window.Outcome
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := window.Watch(ctx, det, poc.Program, poc.Victim, ecfg, cfg, func(window.Verdict) {
					emitted++
					cancel()
				})
				done <- result{out, err}
			}()
			select {
			case r := <-done:
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("watch returned %v, want context.Canceled", r.err)
				}
				if emitted != 1 || r.out.Windows != 1 {
					t.Fatalf("emit called %d times, outcome counts %d windows after cancelling at the first; want 1", emitted, r.out.Windows)
				}
			case <-time.After(time.Minute):
				t.Fatal("watch kept simulating after cancellation")
			}
		})
	}
}

// TestWatchIgnoresEventCap: MaxEvents caps only recorded logs. A capped
// log is refused by Replay, while Watch keeps no log and gives the
// verdicts of replaying the uncapped one.
func TestWatchIgnoresEventCap(t *testing.T) {
	det := detect.NewDetector(defaultRepo(t))
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	capped := exec.DefaultConfig()
	capped.MaxEvents = 16

	rec := capped
	rec.RecordEvents = true
	m, err := exec.NewMachine(rec, poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if !tr.EventsTruncated {
		t.Fatalf("a %d-event log was not truncated at 16", len(tr.Events))
	}
	if _, err := window.Replay(context.Background(), det, poc.Program, m.Hierarchy().LLC().Config(), tr, window.Config{}, nil); err == nil {
		t.Fatal("replay accepted a truncated log")
	}

	gotV, gotO := streamed(t, det, poc.Program, poc.Victim, capped, window.Config{})
	wantV, wantO := replayed(t, det, poc.Program, poc.Victim, exec.DefaultConfig(), window.Config{})
	if !reflect.DeepEqual(gotV, wantV) || !reflect.DeepEqual(gotO, wantO) {
		t.Fatalf("capped watch differs from uncapped replay: %d vs %d verdicts", len(gotV), len(wantV))
	}
}

// watchAllocBudget is the allocation budget of one FR-IAIK Watch against
// the default repository with exact scans: simulation, every window's
// trace rebuild, model and scan, on a reused machine. Measured at 668
// (one more when a GC drops the scan's pooled scratch).
const watchAllocBudget = 671

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWatchAllocs pins the allocation count of one streamed Watch, so a
// change that brings back a per-event or per-window allocation fails.
func TestWatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under -race")
	}
	det := detect.NewDetector(defaultRepo(t))
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	ctx := context.Background()
	run := func() {
		if _, err := window.Watch(ctx, det, poc.Program, poc.Victim, exec.DefaultConfig(), window.Config{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the engine
	got := testing.AllocsPerRun(10, run)
	t.Logf("%.0f allocs per watch (budget %d)", got, watchAllocBudget)
	if got > watchAllocBudget {
		t.Errorf("%.0f allocs per watch, budget %d", got, watchAllocBudget)
	}
}

// FuzzWatch runs mutated PoCs (light or obfuscating mutation, as
// FuzzPipeline does) through Watch and through Replay of the recorded
// log, under one of the differential's window geometries or one window
// as wide as any run, and requires identical verdict streams and
// outcomes. The full-width window must also reproduce the post-hoc
// verdict and best match of detect.Classify.
func FuzzWatch(f *testing.F) {
	p := attacks.DefaultParams()
	var pocs []attacks.PoC
	for _, name := range append(attacks.Names(), attacks.ExtensionNames()...) {
		poc, err := attacks.ByName(name, p)
		if err != nil {
			f.Fatal(err)
		}
		pocs = append(pocs, poc)
	}
	for i := range pocs {
		f.Add(uint8(i), int64(i+1), i%3 == 0, uint8(i))
	}
	full := window.Config{Size: 1 << 62}
	geoms := []window.Config{watchGeometries["default"], watchGeometries["tumbling"], watchGeometries["quietgap"], full}
	det := detect.NewDetector(defaultRepo(f))
	ecfg := exec.DefaultConfig()

	f.Fuzz(func(t *testing.T, pocIdx uint8, seed int64, obfuscate bool, geom uint8) {
		poc := pocs[int(pocIdx)%len(pocs)]
		mcfg := mutate.LightConfig(seed)
		if obfuscate {
			mcfg = mutate.ObfuscationConfig(seed)
		}
		prog, err := mutate.Mutate(poc.Program, mcfg)
		if err != nil {
			t.Skipf("mutate %s/%d: %v", poc.Name, seed, err)
		}
		cfg := geoms[int(geom)%len(geoms)]
		gotV, gotO := streamed(t, det, prog, poc.Victim, ecfg, cfg)
		wantV, wantO := replayed(t, det, prog, poc.Victim, ecfg, cfg)
		if !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("%s/%d: verdict streams differ: watch %d verdicts, replay %d", poc.Name, seed, len(gotV), len(wantV))
		}
		if !reflect.DeepEqual(gotO, wantO) {
			t.Fatalf("%s/%d: outcomes differ:\nwatch  %+v\nreplay %+v", poc.Name, seed, gotO, wantO)
		}
		if cfg == full {
			post, _, err := det.Classify(prog, poc.Victim)
			if err != nil {
				t.Fatal(err)
			}
			if gotO.Final.Predicted != post.Predicted || gotO.Final.Best != post.Best {
				t.Fatalf("%s/%d: full-width window %s/%+v, post-hoc %s/%+v", poc.Name, seed,
					gotO.Final.Predicted, gotO.Final.Best, post.Predicted, post.Best)
			}
		}
	})
}
