package shard

// Tests for the repository-index mode on the wire: an indexed remote
// scan must agree bit-identically with a flat exact scan of the same
// slice, the server must memoize indexed and flat engines separately,
// and ServerConfig.WarmIndex must pre-build the indexed engine.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/scan"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

// TestRemoteIndexedScanBitIdentical drives a RemoteShard with the Index
// trio set against a loopback server and compares every non-pruned
// score — and the best match — against a local flat exact engine.
func TestRemoteIndexedScanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	models := corpus(rng, 40)
	targets := corpus(rng, 4)

	tel := telemetry.NewCollector()
	srv := NewServer(models, ServerConfig{Telemetry: tel})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	exact := scan.New(models, scan.Config{Sim: similarity.DefaultOptions()})
	remote := NewRemoteShard(ts.URL, len(models),
		scan.Config{Prune: true, Index: true, Sim: similarity.DefaultOptions()}.Semantics(), RemoteConfig{})

	for ti, target := range targets {
		want := exact.Scan(target)
		cut := scan.NewCutoff()
		got, err := remote.Scan(context.Background(), target, cut)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("target %d: %d matches, want %d", ti, len(got), len(want))
		}
		bestG, bestW := 0, 0
		for i := range got {
			if got[i].Score > got[bestG].Score {
				bestG = i
			}
			if want[i].Score > want[bestW].Score {
				bestW = i
			}
			if !got[i].Pruned && got[i].Score != want[i].Score {
				t.Errorf("target %d entry %d: indexed remote score %.17g, exact %.17g", ti, i, got[i].Score, want[i].Score)
			}
		}
		if bestG != bestW || got[bestG].Pruned || got[bestG].Score != want[bestW].Score {
			t.Errorf("target %d: indexed remote best %d (%.17g, pruned=%v), exact best %d (%.17g)",
				ti, bestG, got[bestG].Score, got[bestG].Pruned, bestW, want[bestW].Score)
		}
	}
	if n := tel.Snapshot().Counters["index_rebuilds"]; n != 1 {
		t.Errorf("server built %d indexes for one indexed configuration, want 1", n)
	}
}

// TestServerIndexedEngineSeparation: the same slice scanned flat and
// indexed must come from two distinct memoized engines (the scan.Semantics key
// includes the Index trio), and both must agree on the best match.
func TestServerIndexedEngineSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	models := corpus(rng, 24)
	target := corpus(rng, 1)[0]

	srv := NewServer(models, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sim := similarity.DefaultOptions()
	flatReq := scanRequest{Target: *target, Prune: true,
		Window: sim.Window, ISWeight: sim.ISWeight, CSPWeight: sim.CSPWeight}
	idxReq := flatReq
	idxReq.Index = true

	flatResp, status := postScan(t, ts.URL, flatReq)
	if status != 200 {
		t.Fatalf("flat scan answered %d", status)
	}
	idxResp, status := postScan(t, ts.URL, idxReq)
	if status != 200 {
		t.Fatalf("indexed scan answered %d", status)
	}

	srv.mu.Lock()
	engines := len(srv.engines)
	srv.mu.Unlock()
	if engines != 2 {
		t.Errorf("server memoized %d engines for flat+indexed, want 2", engines)
	}
	if flatResp.Best == nil || idxResp.Best == nil || *flatResp.Best != *idxResp.Best {
		t.Errorf("flat and indexed scans disagree on best distance: %v vs %v", flatResp.Best, idxResp.Best)
	}
}

// TestServerWarmIndex: WarmIndex pre-builds the default indexed engine
// at construction, so the first indexed request finds it memoized.
func TestServerWarmIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	models := corpus(rng, 16)

	tel := telemetry.NewCollector()
	srv := NewServer(models, ServerConfig{Telemetry: tel, WarmIndex: true, IndexClusters: 3})
	if n := tel.Snapshot().Counters["index_rebuilds"]; n != 1 {
		t.Fatalf("WarmIndex built %d indexes at startup, want 1", n)
	}
	srv.mu.Lock()
	engines := len(srv.engines)
	srv.mu.Unlock()
	if engines != 1 {
		t.Fatalf("WarmIndex memoized %d engines, want 1", engines)
	}

	// A default-semantics indexed request must reuse the warmed engine:
	// no second index build.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sim := similarity.DefaultOptions()
	_, status := postScan(t, ts.URL, scanRequest{Target: *models[0], Prune: true, Index: true, IndexClusters: 3,
		Window: sim.Window, ISWeight: sim.ISWeight, CSPWeight: sim.CSPWeight})
	if status != 200 {
		t.Fatalf("indexed scan answered %d", status)
	}
	if n := tel.Snapshot().Counters["index_rebuilds"]; n != 1 {
		t.Errorf("first indexed request rebuilt the index (%d builds total), warming missed", n)
	}

	// An old client still sends "cascade":true. Every pruned scan runs
	// the cascade, so the field must not select a second engine (and a
	// second O(n²) index build).
	body, err := json.Marshal(scanRequest{Target: *models[1], Prune: true, Index: true, IndexClusters: 3,
		Window: sim.Window, ISWeight: sim.ISWeight, CSPWeight: sim.CSPWeight})
	if err != nil {
		t.Fatal(err)
	}
	body = append(body[:len(body)-1], `,"cascade":true}`...)
	resp, err := http.Post(ts.URL+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cascade-carrying indexed scan answered %d", resp.StatusCode)
	}
	if n := tel.Snapshot().Counters["index_rebuilds"]; n != 1 {
		t.Errorf("a \"cascade\":true request rebuilt the index (%d builds total), want the warm engine", n)
	}
}
