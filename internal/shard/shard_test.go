package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

// corpus builds n deterministic models drawing blocks from a small
// vocabulary, so block pairs repeat across shards (the DistCache
// workload) and scores collide often enough to exercise ordering.
func corpus(rng *rand.Rand, n int) []*model.CSTBBS {
	vocab := [][]string{
		{"clflush mem"},
		{"mov reg, mem", "rdtscp reg"},
		{"mov reg, mem", "add reg, imm", "cmp reg, imm"},
		{"rdtscp reg", "mov reg, mem", "rdtscp reg", "sub reg, reg"},
		{"add reg, imm"},
		{"mov reg, mem"},
	}
	out := make([]*model.CSTBBS, n)
	for i := range out {
		b := &model.CSTBBS{Name: fmt.Sprintf("m%03d", i), TimerReads: 1}
		for k, kn := 0, 1+rng.Intn(8); k < kn; k++ {
			d := float64(rng.Intn(10)) / 16
			b.Seq = append(b.Seq, model.CST{
				NormInsns: vocab[rng.Intn(len(vocab))],
				Before:    cache.State{AO: 0, IO: 1},
				After:     cache.State{AO: d, IO: 1 - d},
			})
		}
		out[i] = b
	}
	return out
}

func scanEqual(t *testing.T, tag string, got, want []scan.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}

// bestOf returns the winning (index, exact score) of an exact match
// list.
func bestOf(ms []scan.Match) (int, float64) {
	bi, bs := -1, math.Inf(-1)
	for _, m := range ms {
		if m.Score > bs {
			bi, bs = m.Index, m.Score
		}
	}
	return bi, bs
}

// TestRouterPartitionCoversEveryEntryOnce: the router yields a
// partition of 0..n-1, with ascending per-shard slices.
func TestRouterPartitionCoversEveryEntryOnce(t *testing.T) {
	models := corpus(rand.New(rand.NewSource(3)), 41)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	for _, n := range []int{1, 2, 7} {
		parts := Router{Shards: n}.Partition(names)
		if len(parts) != n {
			t.Fatalf("%d shards: %d parts", n, len(parts))
		}
		seen := make(map[int]bool)
		for _, part := range parts {
			for i, g := range part {
				if i > 0 && part[i-1] >= g {
					t.Fatalf("%d shards: shard slice not ascending: %v", n, part)
				}
				if seen[g] {
					t.Fatalf("%d shards: index %d assigned twice", n, g)
				}
				seen[g] = true
			}
		}
		if len(seen) != len(names) {
			t.Fatalf("%d shards: %d of %d indices covered", n, len(seen), len(names))
		}
	}
}

// TestRouterRendezvousRebalance: growing from 5 to 6 shards must move
// only a small fraction of entries (the point of rendezvous hashing;
// the expectation is 1/6).
func TestRouterRendezvousRebalance(t *testing.T) {
	const n = 600
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("entry-%04d", i)
	}
	moved := 0
	for _, name := range names {
		if (Router{Shards: 5}).Assign(name) != (Router{Shards: 6}).Assign(name) {
			moved++
		}
	}
	if frac := float64(moved) / n; frac > 0.35 {
		t.Fatalf("rendezvous moved %.0f%% of entries on 5→6 resize, want ~17%%", frac*100)
	}
	if moved == 0 {
		t.Fatal("resize moved nothing — hash ignores shard count?")
	}
}

// TestRouterHashBalance: names that differ only in a numeric suffix —
// how corpora name their variants — spread within 1.25x of an even
// split at every shard count a deployment plausibly runs.
func TestRouterHashBalance(t *testing.T) {
	names := make([]string, 500)
	for i := range names {
		names[i] = fmt.Sprintf("entry-%03d", i)
	}
	for n := 2; n <= 8; n++ {
		parts := Router{Shards: n}.Partition(names)
		fair := float64(len(names)) / float64(n)
		for s, part := range parts {
			if ratio := float64(len(part)) / fair; ratio > 1.25 {
				t.Errorf("%d shards: shard %d holds %d entries, %.2fx its fair share %.1f", n, s, len(part), ratio, fair)
			}
		}
	}
}

// TestShardedExactBitIdenticalLocal: the headline differential — the
// sharded exact scan is bit-identical (Match struct equality, == on
// the float scores) to a single engine's scan, at 1, 2 and 7 local
// shards, including shard counts that leave some shards empty.
func TestShardedExactBitIdenticalLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{5, 19} { // 5 models over 7 shards → empty shards
		models := corpus(rng, size)
		ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
		targets := corpus(rng, 4)
		for _, n := range []int{1, 2, 7} {
			co, err := newLocalCoordinator(models, Router{Shards: n},
				scan.Config{Sim: similarity.DefaultOptions()}, Config{})
			if err != nil {
				t.Fatalf("size=%d n=%d: %v", size, n, err)
			}
			if co.Len() != size {
				t.Fatalf("size=%d n=%d: coordinator Len %d", size, n, co.Len())
			}
			for ti, target := range targets {
				got, err := co.ScanCtx(context.Background(), target)
				if err != nil {
					t.Fatalf("size=%d n=%d target %d: %v", size, n, ti, err)
				}
				scanEqual(t, fmt.Sprintf("size=%d n=%d target %d", size, n, ti), got, ref.Scan(target))
			}
		}
	}
}

// startServers launches one loopback HTTP shard server per router
// slice and returns their addresses in shard order.
func startServers(t testing.TB, models []*model.CSTBBS, r Router, cfg ServerConfig) []string {
	t.Helper()
	addrs := make([]string, r.Shards)
	for i := range addrs {
		srv := httptest.NewServer(NewServer(ShardModels(models, r, i), cfg).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestShardedExactBitIdenticalRemote: the same differential over real
// HTTP — JSON float round-tripping included — at 1, 2 and 7 loopback
// shard servers.
func TestShardedExactBitIdenticalRemote(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	models := corpus(rng, 17)
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	targets := corpus(rng, 3)
	for _, n := range []int{1, 2, 7} {
		r := Router{Shards: n}
		addrs := startServers(t, models, r, ServerConfig{})
		co, err := NewRemoteCoordinator(models, addrs,
			scan.Config{Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{}, Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for ti, target := range targets {
			got, err := co.ScanCtx(context.Background(), target)
			if err != nil {
				t.Fatalf("n=%d target %d: %v", n, ti, err)
			}
			scanEqual(t, fmt.Sprintf("n=%d target %d", n, ti), got, ref.Scan(target))
		}
	}
}

// TestShardedPrunedBestExact: with pruning on across shards and the
// shared cutoff broadcasting the global best, the winning match must
// stay exact — same winner score as the exact reference — locally and
// over HTTP.
func TestShardedPrunedBestExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	models := corpus(rng, 23)
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	targets := corpus(rng, 4)
	scfg := scan.Config{Prune: true, Sim: similarity.DefaultOptions()}

	r := Router{Shards: 3}
	local, err := newLocalCoordinator(models, r, scfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewRemoteCoordinator(models, startServers(t, models, r, ServerConfig{}), scfg.Semantics(), RemoteConfig{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		co   *Coordinator
	}{{"local", local}, {"remote", remote}} {
		for ti, target := range targets {
			got, err := tc.co.ScanCtx(context.Background(), target)
			if err != nil {
				t.Fatalf("%s target %d: %v", tc.name, ti, err)
			}
			want := ref.Scan(target)
			_, wantBest := bestOf(want)
			_, gotBest := bestOf(got)
			if gotBest != wantBest {
				t.Fatalf("%s target %d: pruned best %v, exact best %v", tc.name, ti, gotBest, wantBest)
			}
			for _, m := range got {
				// Pruned scores are upper bounds; exact ones must match
				// the reference bit-for-bit.
				if m.Score < want[m.Index].Score && m.Pruned {
					t.Fatalf("%s target %d entry %d: pruned score %v below exact %v (not an upper bound)",
						tc.name, ti, m.Index, m.Score, want[m.Index].Score)
				}
				if !m.Pruned && m.Score != want[m.Index].Score {
					t.Fatalf("%s target %d entry %d: exact score %v != reference %v",
						tc.name, ti, m.Index, m.Score, want[m.Index].Score)
				}
			}
		}
	}
}

// TestCoordinatorPartialOnShardFault: a shard.scan fault on one local
// shard degrades the scan — surviving shards' matches intact and
// globally ordered, a *PartialError naming the dead shard, telemetry
// counting the degradation.
func TestCoordinatorPartialOnShardFault(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	rng := rand.New(rand.NewSource(41))
	models := corpus(rng, 15)
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	target := corpus(rng, 1)[0]
	tel := telemetry.NewCollector()
	r := Router{Shards: 3}
	co, err := newLocalCoordinator(models, r, scan.Config{Sim: similarity.DefaultOptions()}, Config{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("shard down")
	faultinject.Enable(faultinject.ShardScan, faultinject.Match("1", faultinject.Error(boom)))

	got, err := co.ScanCtx(context.Background(), target)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("PartialError does not unwrap to the injected fault: %v", err)
	}
	parts := PartitionModels(models, r)
	if len(pe.Failed) != 1 || pe.Failed[0].Shard != "1" || pe.Missing != len(parts[1]) {
		t.Fatalf("partial = %+v, want shard 1 with %d entries missing", pe, len(parts[1]))
	}
	if len(got) != len(models)-len(parts[1]) {
		t.Fatalf("%d surviving matches, want %d", len(got), len(models)-len(parts[1]))
	}
	want := ref.Scan(target)
	dead := make(map[int]bool)
	for _, g := range parts[1] {
		dead[g] = true
	}
	prev := -1
	for _, m := range got {
		if dead[m.Index] {
			t.Fatalf("match %d came from the dead shard", m.Index)
		}
		if m.Index <= prev {
			t.Fatalf("matches out of global order at index %d", m.Index)
		}
		prev = m.Index
		if m != want[m.Index] {
			t.Fatalf("surviving match %d = %+v, want %+v", m.Index, m, want[m.Index])
		}
	}
	if n := tel.Counter(telemetry.ShardDegradedScans); n != 1 {
		t.Errorf("ShardDegradedScans = %d, want 1", n)
	}
	if n := tel.Counter(telemetry.ShardScanFailures); n != 1 {
		t.Errorf("ShardScanFailures = %d, want 1", n)
	}
	if n := tel.Counter(telemetry.ShardScans); n != 3 {
		t.Errorf("ShardScans = %d, want 3", n)
	}

	// The same fault degrades every later target too, each scan
	// reporting its own partial.
	for ti, target := range corpus(rng, 2) {
		ms, err := co.ScanCtx(context.Background(), target)
		if !errors.As(err, &pe) {
			t.Fatalf("target %d: err = %v, want *PartialError", ti, err)
		}
		if len(ms) != len(models)-len(parts[1]) {
			t.Fatalf("target %d: %d matches", ti, len(ms))
		}
	}
}

// TestRemoteDeadShardDegrades: an address nobody listens on fails that
// shard and the scan returns the live shards'
// matches plus a *PartialError — no hang, no total failure.
func TestRemoteDeadShardDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	models := corpus(rng, 12)
	target := corpus(rng, 1)[0]
	r := Router{Shards: 2}
	addrs := startServers(t, models, r, ServerConfig{})
	addrs[1] = "127.0.0.1:1" // reserved port: connection refused
	co, err := NewRemoteCoordinator(models, addrs,
		scan.Config{Sim: similarity.DefaultOptions()}.Semantics(),
		RemoteConfig{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.ScanCtx(context.Background(), target)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	parts := PartitionModels(models, r)
	if pe.Missing != len(parts[1]) || len(got) != len(parts[0]) {
		t.Fatalf("missing %d matches %d, want %d/%d", pe.Missing, len(got), len(parts[1]), len(parts[0]))
	}
}

// TestRemoteCheckHandshake: Check accepts a server holding the agreed
// slice and rejects one holding a different repository.
func TestRemoteCheckHandshake(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	models := corpus(rng, 10)
	r := Router{Shards: 2}
	addrs := startServers(t, models, r, ServerConfig{})
	parts := PartitionModels(models, r)
	good := NewRemoteShard(addrs[0], len(parts[0]), scan.Config{Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{})
	if err := good.Check(context.Background()); err != nil {
		t.Fatalf("Check on agreeing server: %v", err)
	}
	bad := NewRemoteShard(addrs[0], len(parts[0])+1, scan.Config{Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{})
	if err := bad.Check(context.Background()); err == nil {
		t.Fatal("Check accepted a slice-size mismatch")
	}
	dead := NewRemoteShard("127.0.0.1:1", 1, scan.Config{Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := dead.Check(ctx); err == nil {
		t.Fatal("Check accepted a dead address")
	}
}

// TestCutoffBroadcastReachesServer: while a remote scan is in flight,
// improvements to the shared cutoff are POSTed to the shard server.
// The stub server holds /scan open until a /cutoff arrives, so the
// test deterministically proves the mid-scan push (and its telemetry).
func TestCutoffBroadcastReachesServer(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	target := corpus(rng, 1)[0]
	tel := telemetry.NewCollector()

	gotCutoff := make(chan cutoffRequest, 16)
	mux := http.NewServeMux()
	mux.HandleFunc("/cutoff", func(w http.ResponseWriter, r *http.Request) {
		var req cutoffRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		select {
		case gotCutoff <- req:
		default:
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/scan", func(w http.ResponseWriter, r *http.Request) {
		var req scanRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		select { // hold the scan open until a broadcast lands
		case <-gotCutoff:
		case <-time.After(5 * time.Second):
			t.Error("no cutoff broadcast reached the server")
		}
		best := 0.5
		_ = json.NewEncoder(w).Encode(scanResponse{Matches: []wireMatch{{Index: 0, Score: 0.25}}, Best: &best})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	s := NewRemoteShard(srv.URL, 1, scan.Config{Prune: true, Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{Telemetry: tel})
	cut := scan.NewCutoff()
	var wg sync.WaitGroup
	wg.Add(1)
	var ms []scan.Match
	var scanErr error
	go func() {
		defer wg.Done()
		ms, scanErr = s.Scan(context.Background(), target, cut)
	}()
	// Keep improving the shared best until the forwarder notices one of
	// the changes; each Update closes the current Changed channel.
	deadline := time.Now().Add(5 * time.Second)
	for best := 100.0; scanDone(&wg) == false && time.Now().Before(deadline); best *= 0.9 {
		cut.Update(best)
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if scanErr != nil {
		t.Fatalf("scan: %v", scanErr)
	}
	if len(ms) != 1 || ms[0].Score != 0.25 {
		t.Fatalf("matches = %+v", ms)
	}
	if got := cut.Best(); got > 0.5 {
		t.Errorf("response best not folded into shared cutoff: %v", got)
	}
	if n := tel.Counter(telemetry.ShardCutoffBroadcasts); n == 0 {
		t.Error("ShardCutoffBroadcasts = 0, want > 0")
	}
}

// scanDone polls whether the scan goroutine finished without blocking.
func scanDone(wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(time.Millisecond):
		return false
	}
}

// TestServerRejectsBadRequests: protocol hygiene — wrong methods and
// malformed bodies get 4xx, /cutoff for unknown scans is a no-op 200.
func TestServerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewServer(corpus(rand.New(rand.NewSource(61)), 3), ServerConfig{}).Handler())
	defer srv.Close()
	check := func(tag string, resp *http.Response, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", tag, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(srv.URL + "/scan")
	check("GET /scan", resp, err, http.StatusMethodNotAllowed)
	resp, err = http.Post(srv.URL+"/scan", "application/json", strings.NewReader("{garbage"))
	check("malformed POST /scan", resp, err, http.StatusBadRequest)
	resp, err = http.Post(srv.URL+"/cutoff", "application/json", strings.NewReader(`{"id":"nope","best":1}`))
	check("orphan cutoff", resp, err, http.StatusOK)
}

// TestNewCoordinatorValidation: partition mismatches are caught at
// construction, not mid-scan.
func TestNewCoordinatorValidation(t *testing.T) {
	models := corpus(rand.New(rand.NewSource(67)), 4)
	mk := func(part []int) Shard {
		return NewLocalShard("x", sliceModels(models, part), scan.Config{})
	}
	if _, err := NewCoordinator(nil, nil, Config{}); err == nil {
		t.Error("accepted zero shards")
	}
	if _, err := NewCoordinator([]Shard{mk([]int{0, 1})}, [][]int{{0}}, Config{}); err == nil {
		t.Error("accepted Len/index mismatch")
	}
	if _, err := NewCoordinator([]Shard{mk([]int{0, 1}), mk([]int{1, 2})}, [][]int{{0, 1}, {1, 2}}, Config{}); err == nil {
		t.Error("accepted duplicated global index")
	}
	if co, err := NewCoordinator([]Shard{mk([]int{0, 1}), mk([]int{2, 3})}, [][]int{{0, 1}, {2, 3}}, Config{}); err != nil || co.Len() != 4 {
		t.Errorf("rejected a valid partition: %v", err)
	}
}

// TestCoordinatorStatsAndGauges: per-shard counters accumulate and
// surface through the gauge adapter.
func TestCoordinatorStatsAndGauges(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	models := corpus(rng, 8)
	target := corpus(rng, 1)[0]
	tel := telemetry.NewCollector()
	co, err := newLocalCoordinator(models, Router{Shards: 2}, scan.Config{Sim: similarity.DefaultOptions()}, Config{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	tel.RegisterGauges("shards", co.TelemetryGauges)
	if _, err := co.ScanCtx(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	for i, st := range co.Stats() {
		if st.Scans != 1 || st.Failures != 0 {
			t.Errorf("shard %d stats = %+v", i, st)
		}
	}
	g := co.TelemetryGauges()
	if g["shard0_scans"] != 1 || g["shard1_scans"] != 1 {
		t.Errorf("gauges = %v", g)
	}
}
