package shard

// Regression tests for the /scan protocol bugfix pass: duplicate scan
// ids from client retries and process-unique id minting.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/scan"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

// postScan sends one /scan request and decodes the reply.
func postScan(t *testing.T, url string, req scanRequest) (scanResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return scanResponse{}, resp.StatusCode
	}
	var out scanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// TestServerDuplicateScanIDIdempotent: a /scan re-sending an id that is
// already registered (a client-side timeout + retry whose first attempt
// is still scanning) must be served idempotently — reusing the
// in-flight cutoff cell — instead of being rejected. The old server
// answered 409 here, failing every such retry.
func TestServerDuplicateScanIDIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	models := corpus(rng, 9)
	target := corpus(rng, 1)[0]
	srv := NewServer(models, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The "first attempt": its cutoff cell is registered and still live.
	firstCut := scan.NewCutoff()
	srv.scans.Store("retried-id", firstCut)

	sim := similarity.DefaultOptions()
	seed := 123.0
	resp, status := postScan(t, ts.URL, scanRequest{
		ID:     "retried-id",
		Target: *target,
		Prune:  true,
		Cutoff: &seed,
		Window: sim.Window, ISWeight: sim.ISWeight, CSPWeight: sim.CSPWeight,
	})
	if status != http.StatusOK {
		t.Fatalf("duplicate-id /scan answered %d, want 200 (old server 409'd retries)", status)
	}
	if len(resp.Matches) != len(models) {
		t.Fatalf("%d matches, want %d", len(resp.Matches), len(models))
	}
	// Proof the handler reused the registered cell rather than minting
	// its own: the scan's best landed in the first attempt's cutoff.
	if best := firstCut.Best(); math.IsInf(best, 1) {
		t.Fatal("retried scan did not reuse the in-flight cutoff cell")
	}
	// The first registrant owns the map entry; serving the retry must
	// not delete it out from under the still-running first attempt.
	if _, ok := srv.scans.Load("retried-id"); !ok {
		t.Fatal("retry deleted the first attempt's scan-id registration")
	}
}

// TestNewScanIDUnique: scan ids are process-unique — concurrent minting
// never collides and every id carries the per-process nonce, so two
// client processes cannot collide on a shared server either.
func TestNewScanIDUnique(t *testing.T) {
	const goroutines, per = 8, 500
	var mu sync.Mutex
	seen := make(map[string]bool, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, per)
			for i := range ids {
				ids[i] = newScanID()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate scan id %q", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	for id := range seen {
		if !strings.HasPrefix(id, scanNonce+"-") {
			t.Fatalf("id %q lacks the process nonce prefix", id)
		}
		break
	}
	if len(seen) != goroutines*per {
		t.Fatalf("%d distinct ids, want %d", len(seen), goroutines*per)
	}
}

// TestClientRetryAfterTimeoutSucceeds: the end-to-end bugfix scenario —
// the first /scan attempt stalls past the client's per-RPC timeout, the
// retry runs while the first attempt may still be registered
// server-side, and the scan still succeeds because every attempt mints
// a fresh id (and the server tolerates duplicates anyway). The recorded
// wire traffic proves the two attempts used distinct ids.
func TestClientRetryAfterTimeoutSucceeds(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	rng := rand.New(rand.NewSource(89))
	models := corpus(rng, 7)
	target := corpus(rng, 1)[0]
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	tel := telemetry.NewCollector()

	// Record every /scan id that reaches the server.
	var mu sync.Mutex
	var ids []string
	inner := NewServer(models, ServerConfig{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/scan" {
			body, _ := io.ReadAll(r.Body)
			var req scanRequest
			_ = json.Unmarshal(body, &req)
			mu.Lock()
			ids = append(ids, req.ID)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// First attempt's scan stalls well past the client timeout; the
	// retry's scan runs clean.
	faultinject.Enable(faultinject.ScanWorker, faultinject.OnCall(1, faultinject.Sleep(2*time.Second)))

	s := NewRemoteShard(ts.URL, len(models), scan.Config{Prune: true, Sim: similarity.DefaultOptions()},
		RemoteConfig{Timeout: 150 * time.Millisecond, Retry: retry.Policy{Attempts: 2}, Telemetry: tel})
	cut := scan.NewCutoff()
	ms, err := s.Scan(context.Background(), target, cut)
	if err != nil {
		t.Fatalf("scan failed despite retry policy: %v (per-RPC timeouts must be transient)", err)
	}
	_, wantBest := bestOf(ref.Scan(target))
	_, gotBest := bestOf(ms)
	if gotBest != wantBest {
		t.Fatalf("retried scan best %v, want %v", gotBest, wantBest)
	}
	if n := tel.Counter(telemetry.ShardRemoteRetries); n == 0 {
		t.Fatal("no retry recorded — the timeout fault did not fire")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) < 2 {
		t.Fatalf("server saw %d /scan attempts, want >= 2", len(ids))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if id == "" {
			t.Fatal("pruned /scan attempt carried no id")
		}
		if seen[id] {
			t.Fatalf("retry re-sent scan id %q — collides with the still-registered first attempt", id)
		}
		seen[id] = true
	}
}
