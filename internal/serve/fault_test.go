package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/shard"
)

// TestAdmitFailpoint proves serve.admit converts an injected admission
// failure into the shed path: 429 with a Retry-After, counted.
func TestAdmitFailpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	faultinject.Enable(faultinject.ServeAdmit, faultinject.Error(errors.New("injected admission failure")))
	t.Cleanup(faultinject.Reset)
	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if n := srv.tel.Snapshot().Counters["serve_rejected"]; n == 0 {
		t.Error("serve_rejected not counted")
	}
	faultinject.Reset()
	resp = postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after reset: status %d, want 200", resp.StatusCode)
	}
}

// TestReloadFailpoint proves a failed reload is a clean 500: the old
// repository keeps serving, its version does not move.
func TestReloadFailpoint(t *testing.T) {
	entries := corpus(t)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Reload = func(string) (*detect.Repository, error) {
			r := &detect.Repository{}
			r.Replace(entries)
			return r, nil
		}
	})
	before := srv.det.Repo.Version()
	faultinject.Enable(faultinject.ServeReload, faultinject.Error(errors.New("injected reload failure")))
	t.Cleanup(faultinject.Reset)
	resp := postJSON(t, ts.URL+"/reload", reloadRequest{})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := srv.det.Repo.Version(); got != before {
		t.Errorf("failed reload moved the version: %d -> %d", before, got)
	}
	// The old contents still serve.
	cresp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
	cr := decodeBody[classifyResponse](t, cresp)
	if cresp.StatusCode != http.StatusOK || cr.Verdict == nil || cr.Verdict.Error != "" {
		t.Errorf("classification broken after failed reload: %d %+v", cresp.StatusCode, cr.Verdict)
	}
	faultinject.Reset()
	resp = postJSON(t, ts.URL+"/reload", reloadRequest{})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after reset: status %d, want 200", resp.StatusCode)
	}
}

// corpusModels returns the test repository's models, in entry order:
// what a single-partition shard-serve replica serves.
func corpusModels(t *testing.T) []*model.CSTBBS {
	t.Helper()
	var models []*model.CSTBBS
	for _, e := range corpus(t) {
		models = append(models, e.BBS)
	}
	return models
}

// TestSlowReplicaFailsOverThroughServe: with one partition served by two
// replicas and the first stalling every /scan, the shard layer's attempt
// timeout fails each request over to the healthy replica (and the
// breaker then skips the slow one). Every verdict is complete,
// bit-identical to a direct classification and returns far below the
// stall — the slow replica delays no client by more than one attempt.
func TestSlowReplicaFailsOverThroughServe(t *testing.T) {
	const stall = 5 * time.Second
	models := corpusModels(t)
	slowInner := shard.NewServer(models, shard.ServerConfig{}).Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/scan" {
			// Consume the body first: only then does the server notice
			// the client abandoning the attempt and cancel r.Context().
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(stall):
			case <-r.Context().Done():
				return
			}
		}
		slowInner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(shard.NewServer(models, shard.ServerConfig{}).Handler())
	t.Cleanup(fast.Close)

	spec := TargetSpec{Spec: "attack:FR-IAIK"}
	want := canon(t, expectVerdict(t, spec, 0))
	srv, ts := newTestServer(t, func(c *Config) {
		c.Detector.ShardAddrs = []string{slow.URL + "|" + fast.URL}
		c.Detector.ShardAttemptTimeout = 50 * time.Millisecond
	})
	t.Cleanup(srv.det.Close)

	for i := 0; i < 5; i++ {
		start := time.Now()
		resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &spec})
		elapsed := time.Since(start)
		cr := decodeBody[classifyResponse](t, resp)
		if resp.StatusCode != http.StatusOK || cr.Verdict == nil {
			t.Fatalf("request %d: status %d, verdict %+v", i, resp.StatusCode, cr.Verdict)
		}
		if got := canon(t, *cr.Verdict); got != want {
			t.Errorf("request %d: verdict diverged\n got %s\nwant %s", i, got, want)
		}
		if elapsed >= stall/5 {
			t.Errorf("request %d took %v against a %v stall — the slow replica was not failed over", i, elapsed, stall)
		}
	}
	if n := srv.tel.Snapshot().Counters["shard_failovers"]; n == 0 {
		t.Error("shard_failovers not counted")
	}
}

// TestDeadShardPartialRPCCount: no layer re-sends a remote-shard RPC.
// With one of two single-replica remote shards dead, a unary request
// and a batch of one each send the dead shard exactly one /scan RPC,
// and each answers the same partial verdict.
func TestDeadShardPartialRPCCount(t *testing.T) {
	models := corpusModels(t)
	router := shard.Router{Shards: 2}
	live := httptest.NewServer(shard.NewServer(shard.ShardModels(models, router, 0), shard.ServerConfig{}).Handler())
	t.Cleanup(live.Close)
	var scans atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/scan" {
			scans.Add(1)
		}
		http.Error(w, "shard down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)

	srv, ts := newTestServer(t, func(c *Config) {
		c.Detector.ShardAddrs = []string{live.URL, dead.URL}
		// No breaker: it would start skipping the dead shard after a few
		// failed scans and hide how many RPCs each request sends.
		c.Detector.ShardBreaker = breaker.Settings{Threshold: -1}
	})
	t.Cleanup(srv.det.Close)

	spec := TargetSpec{Spec: "attack:FR-IAIK"}
	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &spec})
	unary := decodeBody[classifyResponse](t, resp).Verdict
	if unary == nil || !unary.Partial || unary.Predicted == "" {
		t.Fatalf("unary verdict = %+v, want a partial verdict", unary)
	}
	if n := scans.Swap(0); n != 1 {
		t.Errorf("unary request sent %d /scan RPCs to the dead shard, want 1", n)
	}

	resp = postJSON(t, ts.URL+"/v1/classify", classifyRequest{Targets: []TargetSpec{spec}})
	batch := decodeBody[classifyResponse](t, resp).Verdicts
	if len(batch) != 1 || canon(t, batch[0]) != canon(t, *unary) {
		t.Errorf("batch verdicts = %+v, want the unary partial verdict %+v", batch, *unary)
	}
	if n := scans.Load(); n != 1 {
		t.Errorf("batch of one sent %d /scan RPCs to the dead shard, want 1", n)
	}
}

// shardFleet starts n loopback shard servers over the router's slices
// of the test corpus and returns their addresses (each also the
// shard's name in fault injection).
func shardFleet(t *testing.T, n int) []string {
	t.Helper()
	models := corpusModels(t)
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(shard.NewServer(shard.ShardModels(models, shard.Router{Shards: n}, i), shard.ServerConfig{}).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestPartialVerdictSameAcrossEndpoints: with one remote shard dead,
// batch and NDJSON verdicts carry the same degraded outcome the unary
// endpoint answers — predicted family, best match and matches over the
// surviving shards — not an empty verdict marked partial.
func TestPartialVerdictSameAcrossEndpoints(t *testing.T) {
	addrs := shardFleet(t, 2)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Detector.ShardAddrs = addrs
	})
	t.Cleanup(srv.det.Close)
	faultinject.Enable(faultinject.ShardScan,
		faultinject.Match(addrs[1], faultinject.Error(errors.New("shard down"))))
	t.Cleanup(faultinject.Reset)

	spec := TargetSpec{Spec: "attack:FR-IAIK"}
	unary := decodeBody[classifyResponse](t, postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &spec})).Verdict
	if unary == nil || !unary.Partial || unary.Predicted == "" || unary.Best == nil || len(unary.Matches) == 0 {
		t.Fatalf("unary verdict = %+v, want a non-empty partial verdict", unary)
	}
	want := canon(t, *unary)

	batch := decodeBody[classifyResponse](t, postJSON(t, ts.URL+"/v1/classify",
		classifyRequest{Targets: []TargetSpec{spec, spec}})).Verdicts
	if len(batch) != 2 {
		t.Fatalf("got %d batch verdicts, want 2", len(batch))
	}
	for i, v := range batch {
		if got := canon(t, v); got != want {
			t.Errorf("batch verdict %d diverged from unary\n got %s\nwant %s", i, got, want)
		}
	}

	body := `{"spec":"attack:FR-IAIK"}` + "\n" + `{"spec":"attack:FR-IAIK"}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/classify/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readNDJSON(t, resp.Body)
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON verdicts, want 2", len(lines))
	}
	for i, v := range lines {
		if got := canon(t, v); got != want {
			t.Errorf("NDJSON verdict %d diverged from unary\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestDeadShardPartialVerdict proves degradation end to end: with one
// remote shard persistently dead, the service still answers 200 with a
// verdict marked partial, built from the surviving shards.
func TestDeadShardPartialVerdict(t *testing.T) {
	addrs := shardFleet(t, 2)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Detector.ShardAddrs = addrs
	})
	t.Cleanup(srv.det.Close)
	faultinject.Enable(faultinject.ShardScan,
		faultinject.Match(addrs[1], faultinject.Error(errors.New("shard down"))))
	t.Cleanup(faultinject.Reset)

	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (degraded, not failed)", resp.StatusCode)
	}
	cr := decodeBody[classifyResponse](t, resp)
	if cr.Verdict == nil {
		t.Fatal("no verdict")
	}
	if !cr.Verdict.Partial {
		t.Errorf("verdict not marked partial: %+v", cr.Verdict)
	}
	if cr.Verdict.Error != "" {
		t.Errorf("partial verdict carries an error: %q", cr.Verdict.Error)
	}
	if cr.Verdict.Predicted == "" {
		t.Error("partial verdict has no prediction")
	}
}

// TestStreamSurvivesInjectedPanic proves per-target fault isolation on
// the streaming path: a panic injected into one target's scan becomes
// that line's error verdict, and the following line still classifies.
func TestStreamSurvivesInjectedPanic(t *testing.T) {
	_, ts := newTestServer(t, nil)
	faultinject.Enable(faultinject.ScanWorker,
		faultinject.OnCall(1, faultinject.Panic("injected scan panic")))
	t.Cleanup(faultinject.Reset)

	body := `{"spec":"attack:FR-IAIK"}` + "\n" + `{"spec":"benign:crypto/aes-ttable/7"}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/classify/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	verdicts := readNDJSON(t, resp.Body)
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdict lines, want 2", len(verdicts))
	}
	if verdicts[0].Error == "" {
		t.Errorf("panicked target did not fail: %+v", verdicts[0])
	}
	if verdicts[1].Error != "" {
		t.Errorf("panic leaked into the next target: %+v", verdicts[1])
	}
}

// TestFailingTargetSameErrorAcrossEndpoints: a target whose
// classification fails carries the same error verdict on every
// endpoint — batch and NDJSON run the same ClassifyCtx call the unary
// endpoint does, with no stream-side wrapping — and its neighbors
// still classify.
func TestFailingTargetSameErrorAcrossEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	faultinject.Enable(faultinject.ModelCST,
		faultinject.Match("FR-IAIK", faultinject.Error(errors.New("cst measurement failed"))))
	t.Cleanup(faultinject.Reset)

	bad, good := TargetSpec{Spec: "attack:FR-IAIK"}, TargetSpec{Spec: "benign:crypto/aes-ttable/7"}
	unary := decodeBody[classifyResponse](t, postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &bad})).Verdict
	if unary == nil || !strings.Contains(unary.Error, "cst measurement failed") {
		t.Fatalf("unary verdict = %+v, want the injected CST error", unary)
	}
	want := canon(t, *unary)

	batch := decodeBody[classifyResponse](t, postJSON(t, ts.URL+"/v1/classify",
		classifyRequest{Targets: []TargetSpec{bad, good}})).Verdicts
	body := `{"spec":"attack:FR-IAIK"}` + "\n" + `{"spec":"benign:crypto/aes-ttable/7"}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/classify/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readNDJSON(t, resp.Body)
	for name, vs := range map[string][]Verdict{"batch": batch, "NDJSON": lines} {
		if len(vs) != 2 {
			t.Fatalf("%s: got %d verdicts, want 2", name, len(vs))
		}
		if got := canon(t, vs[0]); got != want {
			t.Errorf("%s error verdict diverged from unary\n got %s\nwant %s", name, got, want)
		}
		if vs[1].Error != "" {
			t.Errorf("%s: failure leaked into the next target: %+v", name, vs[1])
		}
	}
}
