package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/panicsafe"
	"repro/internal/telemetry"
)

// The repository fixture runs the simulator, so it is built once and
// shared.
var sharedRepo *detect.Repository

func fixtures(t *testing.T) *detect.Repository {
	t.Helper()
	if sharedRepo != nil {
		return sharedRepo
	}
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
	return sharedRepo
}

// poc builds a canonical PoC by name. Distinct PoCs have distinct
// program names, which is what the model.build and model.cst
// failpoints carry as their detail.
func poc(t *testing.T, name string) attacks.PoC {
	t.Helper()
	p, err := attacks.ByName(name, attacks.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// attack is the default stream target: a Flush+Reload variant outside
// the repository.
func attack(t *testing.T, id string) Target {
	t.Helper()
	p := poc(t, "FR-Mastik")
	return Target{ID: id, Program: p.Program, Victim: p.Victim}
}

// timerFree is a benign program that never reads the timer: the
// detector gates it benign before any repository scan.
func timerFree(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := benign.Generate(benign.Spec{Kind: benign.KindCrypto, Template: "aes-ttable", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newDetector(t *testing.T) *detect.Detector {
	t.Helper()
	d := detect.NewDetector(fixtures(t))
	d.Telemetry = telemetry.NewCollector()
	return d
}

// direct is the reference verdict: the target classified by a separate
// detector over the same repository, outside any stream.
func direct(t *testing.T, tg Target) detect.Result {
	t.Helper()
	res, _, err := detect.NewDetector(fixtures(t)).ClassifyCtx(context.Background(), tg.Program, tg.Victim)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkNoLeak asserts the goroutine count returns to its before level
// (exiting goroutines need a moment to unwind).
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func drain(out <-chan Result) []Result {
	var rs []Result
	for r := range out {
		rs = append(rs, r)
	}
	return rs
}

// checkSeqs asserts results came out in arrival order, without gaps.
func checkSeqs(t *testing.T, results []Result) {
	t.Helper()
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("emission %d carries seq %d — not in arrival order", i, r.Seq)
		}
	}
}

func TestStreamMatchesDirectClassification(t *testing.T) {
	d := newDetector(t)
	fr, er := attack(t, "prog"), poc(t, "ER-IAIK")
	wantFR, wantER := direct(t, fr), direct(t, Target{Program: er.Program, Victim: er.Victim})

	before := runtime.NumGoroutine()
	in := make(chan Target, 3)
	in <- fr
	in <- Target{ID: "other", Program: er.Program, Victim: er.Victim}
	in <- Target{Program: fr.Program, Victim: fr.Victim} // unnamed: falls back to the program name
	close(in)
	results := drain(Classify(context.Background(), d, in, 0))
	checkNoLeak(t, before)

	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	checkSeqs(t, results)
	for i, want := range []struct {
		id  string
		res detect.Result
	}{{"prog", wantFR}, {"other", wantER}, {fr.Program.Name, wantFR}} {
		r := results[i]
		if r.Err != nil {
			t.Fatalf("%s: unexpected error %v", r.ID, r.Err)
		}
		if r.ID != want.id {
			t.Errorf("result %d has ID %q, want %q", i, r.ID, want.id)
		}
		if r.Verdict.Predicted != want.res.Predicted || r.Verdict.Best.Name != want.res.Best.Name {
			t.Errorf("%s verdict %+v, want %+v", r.ID, r.Verdict.Best, want.res.Best)
		}
		if r.Model == nil {
			t.Errorf("%s result missing built model", r.ID)
		}
	}
	if got := d.Telemetry.Counter(telemetry.StreamTargets); got != 3 {
		t.Errorf("stream_targets = %d, want 3", got)
	}
}

// TestStreamErrTargetsKeepTheirPlace: a target that arrives with Err
// set is emitted in its arrival position, unclassified and counted,
// between verdicts for its neighbors.
func TestStreamErrTargetsKeepTheirPlace(t *testing.T) {
	d := newDetector(t)
	sentinel := errors.New("resolve: no such target")
	in := make(chan Target, 3)
	in <- attack(t, "a")
	in <- Target{ID: "bad", Err: sentinel}
	in <- attack(t, "b")
	close(in)
	results := drain(Classify(context.Background(), d, in, 2))
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	checkSeqs(t, results)
	if r := results[1]; r.ID != "bad" || r.Err != sentinel || r.Model != nil {
		t.Errorf("error target = %+v, want its own error, unclassified", r)
	}
	for _, r := range []Result{results[0], results[2]} {
		if r.Err != nil {
			t.Errorf("%s: collateral error %v", r.ID, r.Err)
		}
	}
	if got := d.Telemetry.Counter(telemetry.DetectClassifications); got != 2 {
		t.Errorf("detect_classifications = %d, want 2 (the error target is not classified)", got)
	}
	if got := d.Telemetry.Counter(telemetry.StreamErrorResults); got != 1 {
		t.Errorf("stream_error_results = %d, want 1", got)
	}
}

// TestStreamPanicIsolation is the headline robustness property: a
// fault-injected panic in one target of a 16-target stream yields an
// error result for that target, correct verdicts for the other 15, and
// no goroutine leak.
func TestStreamPanicIsolation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	good := attack(t, "")
	want := direct(t, good)
	faulty := poc(t, "ER-IAIK")

	faultinject.Enable(faultinject.ModelBuild,
		faultinject.Match(faulty.Program.Name, faultinject.Panic("injected model panic")))

	before := runtime.NumGoroutine()
	in := make(chan Target, 16)
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("t%02d", i)
		if i == 7 {
			in <- Target{ID: id, Program: faulty.Program, Victim: faulty.Victim}
			continue
		}
		in <- Target{ID: id, Program: good.Program, Victim: good.Victim}
	}
	close(in)
	results := drain(Classify(context.Background(), d, in, 4))
	checkNoLeak(t, before)

	if len(results) != 16 {
		t.Fatalf("results = %d, want 16", len(results))
	}
	checkSeqs(t, results)
	for _, r := range results {
		if r.ID == "t07" {
			pe, ok := panicsafe.AsPanic(r.Err)
			if !ok {
				t.Fatalf("t07: err = %v, want *PanicError", r.Err)
			}
			if pe.Value != "injected model panic" {
				t.Errorf("t07 panic value = %v", pe.Value)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: collateral error %v", r.ID, r.Err)
			continue
		}
		if r.Verdict.Predicted != want.Predicted || r.Verdict.Best.Name != want.Best.Name {
			t.Errorf("%s: verdict %s/%s, want %s/%s", r.ID,
				r.Verdict.Predicted, r.Verdict.Best.Name, want.Predicted, want.Best.Name)
		}
	}
	if got := d.Telemetry.Counter(telemetry.PanicsRecovered); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
	if got := d.Telemetry.Counter(telemetry.StreamErrorResults); got != 1 {
		t.Errorf("stream_error_results = %d, want 1", got)
	}
}

// TestStreamScanPanicIsolation injects the panic below the scan stage
// instead of the modeling stage. The failpoint is armed for every scan
// worker; the neighbors are timer-free benign programs the detector
// gates out before any scan, so only the attack target reaches it.
func TestStreamScanPanicIsolation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	quiet := timerFree(t)

	faultinject.Enable(faultinject.ScanWorker, faultinject.Panic("injected scan panic"))

	before := runtime.NumGoroutine()
	in := make(chan Target, 3)
	in <- Target{ID: "ok-1", Program: quiet}
	in <- attack(t, "bad")
	in <- Target{ID: "ok-2", Program: quiet}
	close(in)
	results := drain(Classify(context.Background(), d, in, 0))
	checkNoLeak(t, before)

	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	checkSeqs(t, results)
	for _, r := range results {
		if r.ID == "bad" {
			if _, ok := panicsafe.AsPanic(r.Err); !ok {
				t.Fatalf("bad: err = %v, want *PanicError", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: collateral error %v", r.ID, r.Err)
		} else if reason := d.GateReason(r.Model.BBS); reason == "" || r.Verdict.Predicted != attacks.FamilyBenign {
			t.Errorf("%s: gate %q, verdict %q — want gated benign", r.ID, reason, r.Verdict.Predicted)
		}
	}
}

// TestStreamInjectedCSTError drives the "error in CST measurement"
// failpoint through the stream: an ordinary error (not a panic) in one
// target's modeling isolates the same way.
func TestStreamInjectedCSTError(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	faulty, fine := attack(t, "faulty"), poc(t, "ER-IAIK")

	sentinel := errors.New("cst measurement failed")
	faultinject.Enable(faultinject.ModelCST, faultinject.Match(faulty.Program.Name, faultinject.Error(sentinel)))

	in := make(chan Target, 2)
	in <- faulty
	in <- Target{ID: "fine", Program: fine.Program, Victim: fine.Victim}
	close(in)
	results := drain(Classify(context.Background(), d, in, 0))

	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
		switch r.ID {
		case "faulty":
			if !errors.Is(r.Err, sentinel) {
				t.Errorf("faulty: err = %v, want %v", r.Err, sentinel)
			}
			if _, ok := panicsafe.AsPanic(r.Err); ok {
				t.Errorf("faulty: plain error misreported as panic")
			}
		case "fine":
			if r.Err != nil {
				t.Errorf("fine: %v", r.Err)
			}
		}
	}
	if got := d.Telemetry.Counter(telemetry.PanicsRecovered); got != 0 {
		t.Errorf("panics_recovered = %d, want 0 (no panic occurred)", got)
	}
}

// TestStreamCancellation cancels mid-stream with a slow scan worker
// injected and asserts prompt shutdown, error results for accepted
// in-flight targets, an unconsumed input remainder, and no leak.
func TestStreamCancellation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)

	faultinject.Enable(faultinject.ScanWorker, faultinject.Sleep(2*time.Millisecond))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const total = 64
	in := make(chan Target, total)
	for i := 0; i < total; i++ {
		in <- attack(t, fmt.Sprintf("t%02d", i))
	}
	close(in)

	out := Classify(ctx, d, in, 2)
	first := <-out
	if first.Err != nil {
		t.Fatalf("first result errored before cancel: %v", first.Err)
	}
	cancel()
	start := time.Now()
	rest := drain(out)
	elapsed := time.Since(start)
	checkNoLeak(t, before)

	// Prompt: the only residual work after cancel is the in-flight
	// targets (bounded by 2·workers + 2), each aborting at its next
	// ctx check.
	if elapsed > time.Second {
		t.Errorf("drain after cancel took %v", elapsed)
	}
	if got := len(rest) + 1; got == total {
		t.Errorf("all %d targets resolved; cancellation consumed the whole input", total)
	}
	if len(in) == 0 {
		t.Error("input fully drained after cancel")
	}
	var ctxErrs int
	for _, r := range rest {
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled in chain", r.ID, r.Err)
			}
			ctxErrs++
		}
	}
	if ctxErrs == 0 {
		t.Error("no in-flight target resolved to a cancellation error")
	}
}

// TestStreamBackpressure pins the documented in-flight bound: with the
// consumer stalled, the pipeline consumes exactly 2·workers + 2 targets
// from the input (the FIFO's slots, the one the emitter holds and the
// one intake is queueing), then stops.
func TestStreamBackpressure(t *testing.T) {
	d := newDetector(t)

	const workers = 1
	const bound = 2*workers + 2
	const total = 32
	in := make(chan Target, total)
	for i := 0; i < total; i++ {
		in <- attack(t, fmt.Sprintf("t%02d", i))
	}
	close(in)

	out := Classify(context.Background(), d, in, workers)
	// Let the pipeline run until it saturates against the unread out.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && total-len(in) < bound {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would overconsume if unbounded
	if consumed := total - len(in); consumed != bound {
		t.Errorf("consumed %d targets with stalled consumer, want the bound %d", consumed, bound)
	}
	// Release the consumer; everything must still resolve exactly once.
	results := drain(out)
	if len(results) != total {
		t.Fatalf("results = %d, want %d", len(results), total)
	}
	checkSeqs(t, results)
}

// TestStreamTargetTimeout gives every target an impossible deadline
// through the detector's per-classification Timeout.
func TestStreamTargetTimeout(t *testing.T) {
	d := newDetector(t)
	d.Timeout = time.Nanosecond

	in := make(chan Target, 2)
	in <- attack(t, "a")
	in <- attack(t, "b")
	close(in)
	results := drain(Classify(context.Background(), d, in, 0))

	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want DeadlineExceeded", r.ID, r.Err)
		}
	}
	if got := d.Telemetry.Counter(telemetry.StreamErrorResults); got != 2 {
		t.Errorf("stream_error_results = %d, want 2", got)
	}
}

func TestStreamEmptyInput(t *testing.T) {
	d := newDetector(t)
	before := runtime.NumGoroutine()
	in := make(chan Target)
	close(in)
	if results := drain(Classify(context.Background(), d, in, 0)); len(results) != 0 {
		t.Fatalf("results = %d, want 0", len(results))
	}
	checkNoLeak(t, before)
}
