package stream

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// TestStreamOrderedEmission: results come out in arrival order even
// when the first target resolves last. The head target's modeling is
// slowed by a fault-injected stall aimed at its program name, while the
// rest are quick and would otherwise overtake it.
func TestStreamOrderedEmission(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	slow, rest := poc(t, "ER-IAIK"), attack(t, "")
	want := direct(t, rest)
	faultinject.Enable(faultinject.ModelBuild,
		faultinject.Match(slow.Program.Name, faultinject.Sleep(100*time.Millisecond)))

	before := runtime.NumGoroutine()
	const n = 8
	in := make(chan Target, n)
	in <- Target{ID: "t00", Program: slow.Program, Victim: slow.Victim}
	for i := 1; i < n; i++ {
		in <- attack(t, fmt.Sprintf("t%02d", i))
	}
	close(in)
	results := drain(Classify(context.Background(), d, in, 4))
	checkNoLeak(t, before)

	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	checkSeqs(t, results)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if i > 0 && (r.Verdict.Predicted != want.Predicted || r.Verdict.Best.Name != want.Best.Name) {
			t.Errorf("%s verdict %+v, want %+v", r.ID, r.Verdict.Best, want.Best)
		}
	}
}

// TestStreamOrderedBoundedAdmission: the result FIFO must not grow
// without bound while the emission head is stuck — intake stops
// admitting once 2·workers + 2 targets are unemitted, and backpressure
// reaches the producer.
func TestStreamOrderedBoundedAdmission(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	slow := poc(t, "ER-IAIK")
	faultinject.Enable(faultinject.ModelBuild,
		faultinject.Match(slow.Program.Name, faultinject.Sleep(400*time.Millisecond)))

	const workers = 2
	const bound = 2*workers + 2
	var sent atomic.Int64
	in := make(chan Target) // unbuffered: every accepted send was admitted
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer close(in)
		for i := 0; i < 40; i++ {
			tg := attack(t, fmt.Sprintf("t%03d", i))
			if i == 0 {
				tg = Target{ID: "t000", Program: slow.Program, Victim: slow.Victim}
			}
			select {
			case in <- tg:
				sent.Add(1)
			case <-ctx.Done():
				return
			}
		}
	}()
	out := Classify(ctx, d, in, workers)

	// While the head target's modeling is stalled nothing can be
	// emitted, so admissions must flatline at the bound.
	time.Sleep(200 * time.Millisecond)
	if got := sent.Load(); got > bound {
		t.Fatalf("intake admitted %d targets while emission was blocked, want <= %d", got, bound)
	}
	results := drain(out)
	if len(results) != 40 {
		t.Fatalf("results = %d, want 40", len(results))
	}
	checkSeqs(t, results)
}

// TestStreamOrderedCancellation: cancelling mid-stream still emits
// every accepted target, in order and without gaps, then closes the
// channel with no goroutines left behind.
func TestStreamOrderedCancellation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	faultinject.Enable(faultinject.ScanWorker, faultinject.Sleep(10*time.Millisecond))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Target)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case in <- attack(t, fmt.Sprintf("t%03d", i)):
			case <-ctx.Done():
				return
			}
		}
	}()
	out := Classify(ctx, d, in, 2)
	first := <-out
	if first.Seq != 0 {
		t.Fatalf("first emission has seq %d", first.Seq)
	}
	cancel()
	rest := drain(out)
	checkNoLeak(t, before)
	for i, r := range rest {
		if r.Seq != i+1 {
			t.Fatalf("post-cancel emission %d carries seq %d — ordered flush broke", i, r.Seq)
		}
	}
}

// TestStreamStagesRunOnce: each target is classified once. A fault that
// hits a target's modeling entry (model.build) or its CST measurement
// (model.cst) once resolves that target to an error result — the stream
// does not re-run a deterministic classification (transient
// remote-shard RPC failures fail over in the shard layer) — while the
// other targets verdict normally.
func TestStreamStagesRunOnce(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	buildBlip, cstBlip, clean := poc(t, "ER-IAIK"), poc(t, "PP-IAIK"), attack(t, "clean")
	want := direct(t, clean)

	var buildCalls, cstCalls atomic.Int64
	faultinject.Enable(faultinject.ModelBuild, func(p faultinject.Point, detail string) error {
		if detail == buildBlip.Program.Name && buildCalls.Add(1) == 1 {
			return errors.New("one-shot build blip")
		}
		return nil
	})
	faultinject.Enable(faultinject.ModelCST, func(p faultinject.Point, detail string) error {
		if detail == cstBlip.Program.Name && cstCalls.Add(1) == 1 {
			return errors.New("one-shot cst blip")
		}
		return nil
	})

	in := make(chan Target, 3)
	in <- Target{ID: "build-blip", Program: buildBlip.Program, Victim: buildBlip.Victim}
	in <- Target{ID: "cst-blip", Program: cstBlip.Program, Victim: cstBlip.Victim}
	in <- clean
	close(in)
	results := drain(Classify(context.Background(), d, in, 0))
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	checkSeqs(t, results)
	for _, r := range results[:2] {
		if r.Err == nil || r.Model != nil {
			t.Errorf("%s = %+v, want an error result without a model", r.ID, r)
		}
	}
	if r := results[2]; r.Err != nil || r.Verdict.Best.Name != want.Best.Name {
		t.Errorf("clean = %+v, want the direct verdict", r)
	}
	if b, c := buildCalls.Load(), cstCalls.Load(); b != 1 || c != 1 {
		t.Errorf("faulted targets hit model.build %d and model.cst %d times, want once each", b, c)
	}
	if got := d.Telemetry.Counter(telemetry.StreamErrorResults); got != 2 {
		t.Errorf("stream_error_results = %d, want 2", got)
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

// TestStreamKeepsPartialVerdict: with one remote shard dead, a
// streamed target resolves to the same degraded verdict the detector
// returns directly — the *shard.PartialError and the surviving shards'
// result together, never the error alone.
func TestStreamKeepsPartialVerdict(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	d := newDetector(t)
	d.ShardAddrs = shardFleet(t, d.Repo, 2)
	t.Cleanup(d.Close)
	tg := attack(t, "t")
	faultinject.Enable(faultinject.ShardScan,
		faultinject.Match(d.ShardAddrs[1], faultinject.Error(errors.New("shard down"))))

	want, _, werr := d.ClassifyCtx(context.Background(), tg.Program, tg.Victim)
	var pe *shard.PartialError
	if !errors.As(werr, &pe) {
		t.Fatalf("direct classification: err = %v, want a *shard.PartialError", werr)
	}
	in := make(chan Target, 1)
	in <- tg
	close(in)
	results := drain(Classify(context.Background(), d, in, 0))
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if !errors.As(r.Err, &pe) {
		t.Fatalf("stream err = %v, want a *shard.PartialError", r.Err)
	}
	if !reflect.DeepEqual(r.Verdict, want) {
		t.Errorf("streamed partial verdict diverged\n got %+v\nwant %+v", r.Verdict, want)
	}
	if r.Verdict.Predicted == "" || r.Verdict.Best.Name == "" || len(r.Verdict.Matches) == 0 {
		t.Errorf("streamed partial verdict is empty: %+v", r.Verdict)
	}
}
