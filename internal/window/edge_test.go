package window_test

// Edge-case pins: windows below modeling minimums, zero-event windows,
// malformed input, configuration validation and the window.emit
// failpoint. These are the "benign-with-reason, never an error or a
// spurious match" guarantees of the ISSUE's bugfix satellites.

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/hpc"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/window"
)

// TestShortWindowsBenignWithReason: windows too thin to model (fewer
// than detect.MinModelLen transitions, or no timer read) must emit
// explicit benign verdicts naming the gate — never errors, never
// matches.
func TestShortWindowsBenignWithReason(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	tr, llc := collect(t, poc.Program, poc.Victim)

	verdicts, _ := replayEvents(t, det, poc.Program, llc, tr.Events, window.Config{Size: 256})
	reasons := make(map[string]int)
	for _, v := range verdicts {
		if v.Err != nil {
			t.Fatalf("window [%d,%d): unexpected error %v", v.Start, v.End, v.Err)
		}
		if v.Reason == "" {
			continue
		}
		reasons[v.Reason]++
		if v.Result.Predicted != attacks.FamilyBenign {
			t.Fatalf("gated window [%d,%d) (%s) predicted %s", v.Start, v.End, v.Reason, v.Result.Predicted)
		}
		if len(v.Result.Matches) != 0 {
			t.Fatalf("gated window [%d,%d) carries %d matches", v.Start, v.End, len(v.Result.Matches))
		}
	}
	if reasons[detect.GateModelTooShort] == 0 {
		t.Errorf("no %s verdicts under 256-cycle windows (reasons: %v)", detect.GateModelTooShort, reasons)
	}
}

// TestTimerlessWindowBenignWithReason: a window with plenty of cache
// behavior but no timer read fails the RequireTimer prerequisite and
// must say so. Synthesized by stripping the timestamp events from a
// full Flush+Reload log — all the cache traffic, none of the channel.
func TestTimerlessWindowBenignWithReason(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	tr, llc := collect(t, poc.Program, poc.Victim)

	var evs []exec.Event
	for _, ev := range tr.Events {
		if ev.Kind == exec.EvHPC && ev.HPC == hpc.Timestamp {
			continue
		}
		evs = append(evs, ev)
	}
	verdicts, out := replayEvents(t, det, poc.Program, llc, evs, window.Config{Size: tr.Cycles + 1})
	if len(verdicts) != 1 {
		t.Fatalf("verdicts = %d, want 1", len(verdicts))
	}
	v := verdicts[0]
	if v.Reason != detect.GateNoTimerReads {
		t.Fatalf("reason = %q, want %s (model len %d)", v.Reason, detect.GateNoTimerReads, v.ModelLen)
	}
	if v.ModelLen < detect.MinModelLen {
		t.Fatalf("model len %d — the timer gate was not what fired", v.ModelLen)
	}
	if v.Err != nil || v.Malicious() || out.Detected {
		t.Fatal("timerless window not an explicit benign")
	}
}

// synthetic builds a minimal two-burst event stream: one retire at
// cycle 10, silence, one retire at far. The window geometry around the
// silence is what the zero-event tests exercise.
func synthetic(prog uint64, far uint64) []exec.Event {
	return []exec.Event{
		{Kind: exec.EvRetire, Cycle: 10, PC: prog},
		{Kind: exec.EvRetire, Cycle: far, PC: prog},
	}
}

// TestZeroEventWindows: with QuietGap disabled every empty window emits
// its own explicit benign verdict; nothing errors, nothing matches.
func TestZeroEventWindows(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	_, llc := collect(t, poc.Program, poc.Victim)

	evs := synthetic(poc.Program.Entry, 50_000)
	cfg := window.Config{Size: 1000, Stride: 1000}
	verdicts, out := replayEvents(t, det, poc.Program, llc, evs, cfg)
	var quiet int
	for _, v := range verdicts {
		if v.Err != nil {
			t.Fatalf("window [%d,%d): %v", v.Start, v.End, v.Err)
		}
		if v.Events == 0 {
			quiet++
			if v.Reason != window.ReasonQuietWindow {
				t.Fatalf("empty window [%d,%d) reason = %q", v.Start, v.End, v.Reason)
			}
			if v.Result.Predicted != attacks.FamilyBenign || v.Malicious() {
				t.Fatalf("empty window [%d,%d) not benign", v.Start, v.End)
			}
			if v.ModelLen != 0 {
				t.Fatalf("empty window [%d,%d) was modelled (len %d)", v.Start, v.End, v.ModelLen)
			}
		}
	}
	// Cycles 1000..50000 are silent: 49 empty 1000-cycle windows.
	if quiet != 49 {
		t.Fatalf("quiet windows = %d, want 49", quiet)
	}
	if out.Quiet != quiet {
		t.Fatalf("outcome.Quiet = %d, want %d", out.Quiet, quiet)
	}
	if out.Detected {
		t.Fatal("synthetic benign stream detected as attack")
	}
}

// TestQuietGapCollapse: the same silence with QuietGap set collapses
// into exactly one zero-event verdict spanning the run.
func TestQuietGapCollapse(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	_, llc := collect(t, poc.Program, poc.Victim)

	evs := synthetic(poc.Program.Entry, 50_000)
	cfg := window.Config{Size: 1000, Stride: 1000, QuietGap: 5000}
	verdicts, out := replayEvents(t, det, poc.Program, llc, evs, cfg)
	var collapsed []window.Verdict
	for _, v := range verdicts {
		if v.Reason == window.ReasonQuietGap {
			collapsed = append(collapsed, v)
		}
		if v.Reason == window.ReasonQuietWindow {
			t.Fatalf("uncollapsed quiet window [%d,%d) despite QuietGap", v.Start, v.End)
		}
	}
	if len(collapsed) != 1 {
		t.Fatalf("collapsed verdicts = %d, want 1", len(collapsed))
	}
	g := collapsed[0]
	if g.Start != 1000 || g.End != 50_000 {
		t.Fatalf("collapsed span [%d,%d), want [1000,50000)", g.Start, g.End)
	}
	if g.Events != 0 || g.ModelLen != 0 || g.Malicious() {
		t.Fatalf("collapsed verdict not an explicit zero-event benign: %+v", g)
	}
	if out.Quiet != 1 {
		t.Fatalf("outcome.Quiet = %d, want 1", out.Quiet)
	}
}

// TestConfigValidation: invalid geometry and missing collaborators are
// rejected at construction.
func TestConfigValidation(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	_, llc := collect(t, poc.Program, poc.Victim)

	if _, err := window.New(det, poc.Program, llc, window.Config{Size: 100, Stride: 200}, nil); err == nil {
		t.Error("stride > size accepted")
	}
	if _, err := window.New(nil, poc.Program, llc, window.Config{}, nil); err == nil {
		t.Error("nil detector accepted")
	}
	if _, err := window.New(det, nil, llc, window.Config{}, nil); err == nil {
		t.Error("nil program accepted")
	}
}

// TestFeedRejectsDecreasingCycles: input violating the exec ordering
// contract poisons the stream with a sticky error.
func TestFeedRejectsDecreasingCycles(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	_, llc := collect(t, poc.Program, poc.Victim)

	d, err := window.New(det, poc.Program, llc, window.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Feed(ctx, exec.Event{Kind: exec.EvRetire, Cycle: 100, PC: poc.Program.Entry}); err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(ctx, exec.Event{Kind: exec.EvRetire, Cycle: 50, PC: poc.Program.Entry}); err == nil {
		t.Fatal("decreasing cycle accepted")
	}
	if err := d.Feed(ctx, exec.Event{Kind: exec.EvRetire, Cycle: 200, PC: poc.Program.Entry}); err == nil {
		t.Fatal("stream error not sticky")
	}
	if _, err := d.Finish(ctx); err == nil {
		t.Fatal("Finish succeeded on a poisoned stream")
	}
}

// TestReplayRejectsBadLogs: truncated and absent event logs are refused
// up front rather than silently mis-windowed.
func TestReplayRejectsBadLogs(t *testing.T) {
	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	_, llc := collect(t, poc.Program, poc.Victim)
	ctx := context.Background()

	if _, err := window.Replay(ctx, det, poc.Program, llc, &exec.Trace{}, window.Config{}, nil); err == nil {
		t.Error("log-less trace accepted")
	}
	bad := &exec.Trace{Events: []exec.Event{{Kind: exec.EvRetire}}, EventsTruncated: true}
	if _, err := window.Replay(ctx, det, poc.Program, llc, bad, window.Config{}, nil); err == nil {
		t.Error("truncated log accepted")
	}
	if _, err := window.Replay(ctx, det, poc.Program, llc, nil, window.Config{}, nil); err == nil {
		t.Error("nil trace accepted")
	}
}

// TestWindowEmitFailpoint: a failing downstream consumer (injected at
// window.emit) poisons exactly that verdict; the stream keeps flowing
// and later windows still classify.
func TestWindowEmitFailpoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	sentinel := errors.New("injected emit failure")
	faultinject.Enable(faultinject.WindowEmit, faultinject.OnCall(1, faultinject.Error(sentinel)))

	det := detect.NewDetector(repo(t))
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	tr, llc := collect(t, poc.Program, poc.Victim)

	verdicts, out := replayEvents(t, det, poc.Program, llc, tr.Events, window.Config{})
	if len(verdicts) < 2 {
		t.Fatalf("only %d verdicts", len(verdicts))
	}
	if !errors.Is(verdicts[0].Err, sentinel) {
		t.Fatalf("first verdict error = %v, want injected sentinel", verdicts[0].Err)
	}
	for _, v := range verdicts[1:] {
		if v.Err != nil {
			t.Fatalf("window %d errored after the injected one: %v", v.Index, v.Err)
		}
	}
	if out.Errors != 1 {
		t.Fatalf("outcome.Errors = %d, want 1", out.Errors)
	}
	if !out.Detected {
		t.Fatal("attack lost because one emit failed")
	}
}

// shardFleet starts n loopback shard servers over the router's slices
// of r, as `scaguard shard-serve` would, and returns their addresses
// (each also the shard's name in fault injection).
func shardFleet(t *testing.T, r *detect.Repository, n int) []string {
	t.Helper()
	models := make([]*model.CSTBBS, len(r.Entries))
	for i, e := range r.Entries {
		models[i] = e.BBS
	}
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(shard.NewServer(shard.ShardModels(models, shard.Router{Shards: n}, i), shard.ServerConfig{}).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestWindowKeepsPartialVerdict: a window whose scan degrades because
// one remote shard is dead keeps the surviving shards' verdict
// alongside the *shard.PartialError — the same pair the detector
// returns directly — and still counts as an errored window.
func TestWindowKeepsPartialVerdict(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	det := detect.NewDetector(repo(t))
	det.ShardAddrs = shardFleet(t, det.Repo, 2)
	t.Cleanup(det.Close)
	poc := attacks.FlushReloadIAIK(attacks.DefaultParams())
	tr, llc := collect(t, poc.Program, poc.Victim)
	faultinject.Enable(faultinject.ShardScan,
		faultinject.Match(det.ShardAddrs[1], faultinject.Error(errors.New("shard down"))))

	m, err := model.BuildFromTrace(poc.Program, tr, llc, det.ModelCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := det.ClassifyBBSCtx(context.Background(), m.BBS)
	var pe *shard.PartialError
	if !errors.As(werr, &pe) {
		t.Fatalf("direct classification: err = %v, want a *shard.PartialError", werr)
	}

	verdicts, out := replayEvents(t, det, poc.Program, llc, tr.Events, window.Config{Size: tr.Cycles + 1})
	if len(verdicts) != 1 {
		t.Fatalf("%d windows for a full-trace window", len(verdicts))
	}
	v := verdicts[0]
	if !errors.As(v.Err, &pe) {
		t.Fatalf("window err = %v, want a *shard.PartialError", v.Err)
	}
	if !reflect.DeepEqual(v.Result, want) {
		t.Errorf("windowed partial verdict diverged\n got %+v\nwant %+v", v.Result, want)
	}
	if v.Result.Predicted == "" || v.Result.Best.Name == "" || len(v.Result.Matches) == 0 {
		t.Errorf("windowed partial verdict is empty: %+v", v.Result)
	}
	if out.Errors != 1 || out.Hits != 0 || out.FinalWindow != -1 {
		t.Errorf("errored window counted as errors=%d hits=%d final=%d, want 1, 0, -1",
			out.Errors, out.Hits, out.FinalWindow)
	}
}
