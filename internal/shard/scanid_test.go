package shard

// Regression tests for the /scan protocol: duplicate scan ids and
// process-unique id minting.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"repro/internal/scan"
	"repro/internal/similarity"
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
// already registered (a client that re-sends a request whose first copy
// is still scanning) must be served idempotently — reusing the
// in-flight cutoff cell — instead of being rejected. The old server
// answered 409 here, failing every such re-send.
func TestServerDuplicateScanIDIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	models := corpus(rng, 9)
	target := corpus(rng, 1)[0]
	srv := NewServer(models, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The "first attempt": its cutoff cell is registered and still live.
	firstCut := scan.NewCutoff()
	srv.scans.Store("resent-id", firstCut)

	sim := similarity.DefaultOptions()
	seed := 123.0
	resp, status := postScan(t, ts.URL, scanRequest{
		ID:     "resent-id",
		Target: *target,
		Prune:  true,
		Cutoff: &seed,
		Window: sim.Window, ISWeight: sim.ISWeight, CSPWeight: sim.CSPWeight,
	})
	if status != http.StatusOK {
		t.Fatalf("duplicate-id /scan answered %d, want 200 (old server 409'd re-sends)", status)
	}
	if len(resp.Matches) != len(models) {
		t.Fatalf("%d matches, want %d", len(resp.Matches), len(models))
	}
	// Proof the handler reused the registered cell rather than minting
	// its own: the scan's best landed in the first attempt's cutoff.
	if best := firstCut.Best(); math.IsInf(best, 1) {
		t.Fatal("re-sent scan did not reuse the in-flight cutoff cell")
	}
	// The first registrant owns the map entry; serving the re-send must
	// not delete it out from under the still-running first attempt.
	if _, ok := srv.scans.Load("resent-id"); !ok {
		t.Fatal("re-send deleted the first copy's scan-id registration")
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

// TestClientRetryAfterTimeoutSucceeds: a caller that gives up on a
// stalled pruned scan and scans again through the same client succeeds
// while the first scan is still registered on the server. The second
// scan mints a fresh id, so it never collides with its predecessor's
// cutoff cell; the recorded wire traffic proves the ids differ.
func TestClientRetryAfterTimeoutSucceeds(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	rng := rand.New(rand.NewSource(89))
	models := corpus(rng, 7)
	target := corpus(rng, 1)[0]
	ref := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})

	// Record every /scan id that reaches the server and whether the
	// first scan was still registered when a later one arrived.
	var mu sync.Mutex
	var ids []string
	firstLive := false
	srv := NewServer(models, ServerConfig{})
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/scan" {
			body, _ := io.ReadAll(r.Body)
			var req scanRequest
			_ = json.Unmarshal(body, &req)
			mu.Lock()
			if len(ids) > 0 {
				_, firstLive = srv.scans.Load(ids[0])
			}
			ids = append(ids, req.ID)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// The first scan stalls on the server well past the caller's
	// deadline; the second runs clean.
	faultinject.Enable(faultinject.ScanWorker, faultinject.OnCall(1, faultinject.Sleep(2*time.Second)))

	s := NewRemoteShard(ts.URL, len(models), scan.Config{Prune: true, Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := s.Scan(ctx, target, scan.NewCutoff()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled scan err = %v, want context.DeadlineExceeded", err)
	}
	ms, err := s.Scan(context.Background(), target, scan.NewCutoff())
	if err != nil {
		t.Fatalf("second scan: %v", err)
	}
	_, wantBest := bestOf(ref.Scan(target))
	_, gotBest := bestOf(ms)
	if gotBest != wantBest {
		t.Fatalf("second scan best %v, want %v", gotBest, wantBest)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 2 {
		t.Fatalf("server saw %d /scan requests, want 2", len(ids))
	}
	if ids[0] == "" || ids[1] == "" {
		t.Fatalf("pruned /scan carried no id: %q", ids)
	}
	if ids[0] == ids[1] {
		t.Fatalf("second scan re-sent id %q — collides with the still-registered first scan", ids[0])
	}
	if !firstLive {
		t.Fatal("first scan was no longer registered when the second arrived — the stall did not hold")
	}
}
