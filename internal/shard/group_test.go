package shard

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

func TestSplitReplicas(t *testing.T) {
	got, err := SplitReplicas("a:1| b:2 |c:3")
	if err != nil || len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Fatalf("SplitReplicas = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a||b", "|a"} {
		if _, err := SplitReplicas(bad); err == nil {
			t.Fatalf("SplitReplicas(%q) accepted", bad)
		}
	}
}

func TestNewReplicaGroupValidation(t *testing.T) {
	if _, err := NewReplicaGroup(nil, GroupConfig{}); err == nil {
		t.Fatal("empty replica set accepted")
	}
	rng := rand.New(rand.NewSource(5))
	a := NewLocalShard("a", corpus(rng, 3), scan.Config{})
	b := NewLocalShard("b", corpus(rng, 4), scan.Config{})
	if _, err := NewReplicaGroup([]Shard{a, b}, GroupConfig{}); err == nil {
		t.Fatal("mismatched replica lengths accepted")
	}
	g, err := NewReplicaGroup([]Shard{a}, GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "a" || g.Len() != 3 {
		t.Fatalf("single-replica group Name=%q Len=%d", g.Name(), g.Len())
	}
}

// replicatedFleet builds a coordinator over n partitions × reps
// replicas of loopback HTTP servers, returning the coordinator, the
// per-[shard][replica] servers, and the replica URLs.
func replicatedFleet(t *testing.T, models []*model.CSTBBS, n, reps int, ccfg Config) (*Coordinator, [][]*httptest.Server, [][]string) {
	t.Helper()
	r := Router{Shards: n}
	srvs := make([][]*httptest.Server, n)
	urls := make([][]string, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srvs[i] = make([]*httptest.Server, reps)
		urls[i] = make([]string, reps)
		for j := 0; j < reps; j++ {
			srv := httptest.NewServer(NewServer(ShardModels(models, r, i), ServerConfig{}).Handler())
			t.Cleanup(srv.Close)
			srvs[i][j] = srv
			urls[i][j] = srv.URL
		}
		addrs[i] = strings.Join(urls[i], "|")
	}
	co, err := NewRemoteCoordinator(models, addrs, scan.Config{Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{}, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co, srvs, urls
}

// TestReplicaFailoverKeepsScansComplete: with one replica of a group
// dead, every scan still covers every repository entry bit-identically
// to the single-engine reference — availability loss must not become a
// detection loss.
func TestReplicaFailoverKeepsScansComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	models := corpus(rng, 13)
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	tel := telemetry.NewCollector()
	co, srvs, _ := replicatedFleet(t, models, 2, 2, Config{Telemetry: tel})

	srvs[0][0].Close() // kill the preferred replica of group 0

	target := corpus(rng, 1)[0]
	got, err := co.ScanCtx(context.Background(), target)
	if err != nil {
		t.Fatalf("scan with one dead replica: %v", err)
	}
	scanEqual(t, "failover", got, ref.Scan(target))
	if tel.Counter(telemetry.ShardFailovers) == 0 {
		t.Fatal("shard_failovers not counted")
	}
	if tel.Counter(telemetry.ShardDegradedScans) != 0 {
		t.Fatal("complete failover counted as degraded")
	}
}

// TestReplicaGroupAllDownDegrades: a whole group dark is the only
// condition that degrades a scan — exactly once per scan, with the
// replica failures visible in the error chain.
func TestReplicaGroupAllDownDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	models := corpus(rng, 11)
	tel := telemetry.NewCollector()
	co, srvs, urls := replicatedFleet(t, models, 2, 2, Config{Telemetry: tel})

	srvs[1][0].Close()
	srvs[1][1].Close()

	target := corpus(rng, 1)[0]
	ms, err := co.ScanCtx(context.Background(), target)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(pe.Failed) != 1 || pe.Failed[0].Shard != strings.Join(urls[1], "|") {
		t.Fatalf("failed shards = %+v", pe.Failed)
	}
	var ge *GroupError
	if !errors.As(err, &ge) || len(ge.Errs) != 2 {
		t.Fatalf("no 2-replica *GroupError in chain: %v", err)
	}
	var re *ReplicaError
	if !errors.As(err, &re) {
		t.Fatalf("no *ReplicaError in chain: %v", err)
	}
	if got := tel.Counter(telemetry.ShardDegradedScans); got != 1 {
		t.Fatalf("shard_degraded_scans = %d, want exactly 1", got)
	}
	// The surviving group's entries are still present and well-formed.
	if len(ms) == 0 || len(ms)+pe.Missing != len(models) {
		t.Fatalf("%d surviving matches + %d missing != %d entries", len(ms), pe.Missing, len(models))
	}
}

// TestReplicaBreakerSkipsDeadBackend: after the breaker threshold, the
// dead replica is skipped without an RPC attempt — scans keep their
// coverage and stop paying the corpse's timeout.
func TestReplicaBreakerSkipsDeadBackend(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(37))
	models := corpus(rng, 9)
	tel := telemetry.NewCollector()
	co, srvs, urls := replicatedFleet(t, models, 1, 2,
		Config{Telemetry: tel, Breaker: breaker.Settings{Threshold: 2, OpenInterval: time.Minute}})

	srvs[0][0].Close()
	dead := urls[0][0]

	target := corpus(rng, 1)[0]
	for i := 0; i < 2; i++ { // reach the threshold
		if _, err := co.ScanCtx(context.Background(), target); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
	}
	if st := co.BreakerStates()[dead]; st != breaker.Open {
		t.Fatalf("dead replica breaker = %v, want open", st)
	}

	// With the breaker open, the dead backend must see no further RPC
	// attempts: the shard.replica.rpc failpoint would fire for its name.
	attempted := false
	faultinject.Enable(faultinject.ShardReplicaRPC, faultinject.Match(dead, func(p faultinject.Point, detail string) error {
		attempted = true
		return nil
	}))
	if _, err := co.ScanCtx(context.Background(), target); err != nil {
		t.Fatalf("post-open scan: %v", err)
	}
	if attempted {
		t.Fatal("open breaker did not prevent the RPC attempt")
	}
	if tel.Counter(telemetry.BreakerOpens) == 0 {
		t.Fatal("breaker_opens not counted")
	}
	gauges := co.BreakerGauges()
	if gauges[dead+"_state"] != uint64(breaker.Open) || gauges[dead+"_opens"] == 0 {
		t.Fatalf("breaker gauges = %v", gauges)
	}
}

// TestReplicaFailpointInjectsFailover: the shard.replica.rpc failpoint
// fails one replica's attempts without touching the network, and the
// group covers it.
func TestReplicaFailpointInjectsFailover(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(41))
	models := corpus(rng, 7)
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	tel := telemetry.NewCollector()
	co, _, urls := replicatedFleet(t, models, 1, 2, Config{Telemetry: tel})

	faultinject.Enable(faultinject.ShardReplicaRPC,
		faultinject.Match(urls[0][0], faultinject.Error(errors.New("injected replica fault"))))
	target := corpus(rng, 1)[0]
	got, err := co.ScanCtx(context.Background(), target)
	if err != nil {
		t.Fatalf("scan under injected fault: %v", err)
	}
	scanEqual(t, "failpoint failover", got, ref.Scan(target))
	if tel.Counter(telemetry.ShardFailovers) != 1 {
		t.Fatalf("shard_failovers = %d, want 1", tel.Counter(telemetry.ShardFailovers))
	}
}

// TestReplicaAttemptTimeoutFailsOver: a replica slower than the
// per-attempt budget loses its attempt and the next replica answers —
// the scan stays complete well inside the whole-group budget.
func TestReplicaAttemptTimeoutFailsOver(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(43))
	models := corpus(rng, 7)
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	co, _, urls := replicatedFleet(t, models, 1, 2,
		Config{AttemptTimeout: 50 * time.Millisecond, ShardTimeout: 10 * time.Second})

	// Slow the first replica's attempt past the attempt budget.
	faultinject.Enable(faultinject.ShardReplicaRPC,
		faultinject.Match(urls[0][0], faultinject.Sleep(300*time.Millisecond)))
	target := corpus(rng, 1)[0]
	start := time.Now()
	got, err := co.ScanCtx(context.Background(), target)
	if err != nil {
		t.Fatalf("scan with slow replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failover took %v — attempt timeout not applied", elapsed)
	}
	scanEqual(t, "slow-replica failover", got, ref.Scan(target))
}

// TestSliceHashOrderAndContent: the slice fingerprint behind the
// content handshake is sensitive to both membership and order — match
// indices are positional, so a reordered slice is different content —
// and, like vcache.TargetHash, ignores model names.
func TestSliceHashOrderAndContent(t *testing.T) {
	ms := corpus(rand.New(rand.NewSource(53)), 2)
	a, b := ms[0], ms[1]
	if sliceHash([]*model.CSTBBS{a, b}) == sliceHash([]*model.CSTBBS{b, a}) {
		t.Fatal("sliceHash ignores order")
	}
	if sliceHash([]*model.CSTBBS{a}) == sliceHash([]*model.CSTBBS{a, b}) {
		t.Fatal("sliceHash ignores membership")
	}
	renamed := *a
	renamed.Name = "renamed"
	if sliceHash([]*model.CSTBBS{a, b}) != sliceHash([]*model.CSTBBS{&renamed, b}) {
		t.Fatal("sliceHash should ignore model names, matching vcache.TargetHash")
	}
}

// TestCheckDetectsStaleReplica: a replica serving different content
// (same entry count) fails the health handshake once the coordinator
// states its expectation.
func TestCheckDetectsStaleReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	fresh := corpus(rng, 6)
	stale := corpus(rng, 6) // same size, different content

	srv := httptest.NewServer(NewServer(stale, ServerConfig{Version: 7}).Handler())
	defer srv.Close()

	rs := NewRemoteShard(srv.URL, 6, scan.Config{Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{})
	if err := rs.Check(context.Background()); err != nil {
		t.Fatalf("entry-count-only check failed: %v", err)
	}
	rs.ExpectContent(7, sliceHash(fresh))
	err := rs.Check(context.Background())
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale replica passed Check: %v", err)
	}
	// Matching content passes regardless of version skew (a front-end
	// /reload bumps the version without changing the served models).
	rs.ExpectContent(99, sliceHash(stale))
	if err := rs.Check(context.Background()); err != nil {
		t.Fatalf("content-identical replica failed Check: %v", err)
	}
}

// TestCheckVersionFallbackForOldServers: against a server that offers
// no content fingerprint, the version comparison is the only staleness
// signal.
func TestCheckVersionFallbackForOldServers(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"entries": 4, "version": 2})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rs := NewRemoteShard(srv.URL, 4, scan.Config{Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{})
	rs.ExpectContent(2, "deadbeef")
	if err := rs.Check(context.Background()); err != nil {
		t.Fatalf("matching version rejected: %v", err)
	}
	rs.ExpectContent(3, "deadbeef")
	if err := rs.Check(context.Background()); err == nil {
		t.Fatal("version mismatch accepted without a server fingerprint")
	}
}

// TestCoordinatorScanCancellationDoesNotLeak is the goroutine-leak
// regression test for the scatter–gather path: contexts cancelled
// mid-scan must not strand per-shard scan goroutines or cutoff
// forwarders.
func TestCoordinatorScanCancellationDoesNotLeak(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(53))
	models := corpus(rng, 12)
	co, err := newLocalCoordinator(models, Router{Shards: 3},
		scan.Config{Sim: similarity.DefaultOptions()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	target := corpus(rng, 1)[0]
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // dead before the scatter even starts
		if _, err := co.ScanCtx(ctx, target); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
		_, _ = co.ScanCtx(ctx2, target) // may or may not finish in time
		cancel2()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("scatter–gather leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// TestCoordinatorCloseStopsProber: building a replicated coordinator
// with a probe interval starts background goroutines; Close must stop
// them (the engine-rebuild lifecycle depends on it).
func TestCoordinatorCloseStopsProber(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	models := corpus(rng, 6)
	r := Router{Shards: 2}
	// Servers first, then the goroutine baseline: their accept loops
	// live for the whole test and must not count against the prober.
	addrs := make([]string, 2)
	for i := range addrs {
		a := httptest.NewServer(NewServer(ShardModels(models, r, i), ServerConfig{}).Handler())
		b := httptest.NewServer(NewServer(ShardModels(models, r, i), ServerConfig{}).Handler())
		t.Cleanup(a.Close)
		t.Cleanup(b.Close)
		addrs[i] = a.URL + "|" + b.URL
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		co, err := NewRemoteCoordinator(models, addrs,
			scan.Config{Sim: similarity.DefaultOptions()}.Semantics(),
			RemoteConfig{},
			Config{ProbeInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond)
		co.Close()
		co.Close() // idempotent
	}
	var nilCo *Coordinator
	nilCo.Close() // nil-safe
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("prober goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestProberReAdmitsRestartedReplica proves end-to-end re-admission:
// kill a replica, let the breaker open, restart a server on the same
// address, and the prober re-closes the breaker without any scan
// traffic.
func TestProberReAdmitsRestartedReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	models := corpus(rng, 6)
	r := Router{Shards: 1}
	slice := ShardModels(models, r, 0)

	// A real shard.Server (not httptest) so we can rebind the address.
	srvA := NewServer(slice, ServerConfig{})
	boundA, shutdownA, err := srvA.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	alive := httptest.NewServer(NewServer(slice, ServerConfig{}).Handler())
	t.Cleanup(alive.Close)

	tel := telemetry.NewCollector()
	co, err := NewRemoteCoordinator(models, []string{boundA + "|" + alive.URL},
		scan.Config{Sim: similarity.DefaultOptions()}.Semantics(),
		RemoteConfig{},
		Config{
			Telemetry:     tel,
			Breaker:       breaker.Settings{Threshold: 1, OpenInterval: 50 * time.Millisecond},
			ProbeInterval: 20 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)

	// Kill the first replica and trip its breaker with one scan.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := shutdownA(sctx); err != nil {
		t.Fatal(err)
	}
	target := corpus(rng, 1)[0]
	if _, err := co.ScanCtx(context.Background(), target); err != nil {
		t.Fatalf("scan with dead first replica: %v", err)
	}
	if st := co.BreakerStates()[boundA]; st == breaker.Closed {
		t.Fatalf("dead replica breaker = %v, want not closed", st)
	}

	// Revive on the same address; the prober must re-close the breaker
	// with no scans happening at all.
	revived := NewServer(slice, ServerConfig{})
	if _, shutdownB, err := revived.Serve(boundA); err != nil {
		t.Fatalf("rebind %s: %v", boundA, err)
	} else {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = shutdownB(ctx)
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if co.BreakerStates()[boundA] == breaker.Closed {
			if tel.Counter(telemetry.BreakerCloses) == 0 {
				t.Fatal("breaker_closes not counted")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("prober never re-admitted the revived replica (state %v)", co.BreakerStates()[boundA])
}
