package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// The corpus runs the simulator, so its entries are built once and
// shared; every test gets its own Repository over them (reload tests
// mutate theirs).
var (
	corpusOnce    sync.Once
	corpusEntries []detect.Entry
	corpusErr     error
)

func corpus(t *testing.T) []detect.Entry {
	t.Helper()
	corpusOnce.Do(func() {
		p := attacks.DefaultParams()
		pocs := []attacks.PoC{
			attacks.FlushReloadIAIK(p),
			attacks.PrimeProbeIAIK(p),
			attacks.SpectreFRIdea(p),
			attacks.SpectrePPTrippel(p),
		}
		repo, err := detect.BuildRepository(pocs, model.DefaultConfig())
		if err != nil {
			corpusErr = err
			return
		}
		corpusEntries = repo.Entries
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusEntries
}

func freshRepo(t *testing.T) *detect.Repository {
	t.Helper()
	r := &detect.Repository{}
	r.Replace(corpus(t))
	return r
}

// newTestServer builds a server over a fresh repository and exposes it
// behind httptest. mutate may adjust the config before New.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	det := detect.NewDetector(freshRepo(t))
	det.Telemetry = telemetry.NewCollector()
	cfg := Config{Detector: det, Telemetry: det.Telemetry}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// expectVerdict computes the verdict a direct (no HTTP) classification
// of spec yields, through an independent detector over an identical
// repository — the reference the wire responses must match
// bit-identically.
func expectVerdict(t *testing.T, spec TargetSpec, pos int) Verdict {
	t.Helper()
	det := detect.NewDetector(freshRepo(t))
	id := spec.label(pos)
	prog, victim, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve %v: %v", spec, err)
	}
	res, m, err := det.ClassifyCtx(context.Background(), prog, victim)
	return verdictFor(id, res, m, err)
}

// canon is the comparison form: encoded JSON, so nil-vs-empty slices
// and float formatting collapse to one representation. Scores survive
// the wire exactly (shortest-decimal round-trip), so equal JSON means
// bit-identical verdicts.
func canon(t *testing.T, v Verdict) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readNDJSON decodes every verdict line of a streaming response.
func readNDJSON(t *testing.T, r io.Reader) []Verdict {
	t.Helper()
	var out []Verdict
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var v Verdict
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestUnaryGolden proves the service boundary is lossless: verdicts
// served over HTTP are bit-identical to direct Classify calls, for an
// attack of each outcome shape plus a benign program.
func TestUnaryGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	specs := []TargetSpec{
		{Spec: "attack:FR-IAIK"},
		{Spec: "attack:S-PP-Trippel"},
		{Spec: "benign:crypto/aes-ttable/7"},
	}
	for _, spec := range specs {
		want := canon(t, expectVerdict(t, spec, 0))
		resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", spec.Spec, resp.StatusCode)
		}
		cr := decodeBody[classifyResponse](t, resp)
		if cr.Verdict == nil {
			t.Fatalf("%s: no verdict", spec.Spec)
		}
		if got := canon(t, *cr.Verdict); got != want {
			t.Errorf("%s: wire verdict diverged\n got %s\nwant %s", spec.Spec, got, want)
		}
	}
}

// TestBatch proves the array form: verdicts align with request
// positions, one unresolvable target becomes one error verdict without
// failing its neighbors, and resolvable targets stay bit-identical.
func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, nil)
	targets := []TargetSpec{
		{Spec: "attack:PP-IAIK"},
		{Spec: "attack:NOPE"},
		{Spec: "benign:crypto/aes-ttable/7"},
	}
	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Targets: targets})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	cr := decodeBody[classifyResponse](t, resp)
	if len(cr.Verdicts) != len(targets) {
		t.Fatalf("got %d verdicts, want %d", len(cr.Verdicts), len(targets))
	}
	for _, i := range []int{0, 2} {
		want := canon(t, expectVerdict(t, targets[i], i))
		if got := canon(t, cr.Verdicts[i]); got != want {
			t.Errorf("slot %d diverged\n got %s\nwant %s", i, got, want)
		}
	}
	if cr.Verdicts[1].Error == "" || !strings.Contains(cr.Verdicts[1].Error, "resolve") {
		t.Errorf("slot 1: want resolve error, got %+v", cr.Verdicts[1])
	}
}

// TestStreamNDJSON proves the streaming endpoint: one verdict line per
// input line, in input order, bad lines isolated to error verdicts, and
// good lines bit-identical to direct classification.
func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	lines := []TargetSpec{
		{Spec: "attack:FR-IAIK"},
		{Spec: "attack:NOPE"},
		{Spec: "benign:crypto/aes-ttable/7"},
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/classify/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := readNDJSON(t, resp.Body)
	if len(got) != len(lines) {
		t.Fatalf("got %d verdict lines, want %d", len(got), len(lines))
	}
	for _, i := range []int{0, 2} {
		want := canon(t, expectVerdict(t, lines[i], i))
		if g := canon(t, got[i]); g != want {
			t.Errorf("line %d diverged\n got %s\nwant %s", i, g, want)
		}
	}
	if got[1].Error == "" || !strings.Contains(got[1].Error, "resolve") {
		t.Errorf("line 1: want resolve error, got %+v", got[1])
	}
}

// TestStreamBadLineEndsInOrder: a line that is not JSON gets an error
// verdict after the verdicts of the lines before it and ends the
// stream, since the byte stream is no longer trustworthy.
func TestStreamBadLineEndsInOrder(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"spec":"attack:FR-IAIK"}` + "\nnot json\n" + `{"spec":"attack:FR-IAIK"}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/classify/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := readNDJSON(t, resp.Body)
	if len(got) != 2 {
		t.Fatalf("got %d verdict lines, want 2: %+v", len(got), got)
	}
	want := canon(t, expectVerdict(t, TargetSpec{Spec: "attack:FR-IAIK"}, 0))
	if g := canon(t, got[0]); g != want {
		t.Errorf("line 0 diverged\n got %s\nwant %s", g, want)
	}
	if got[1].ID != "line" || !strings.HasPrefix(got[1].Error, "bad target line: ") {
		t.Errorf("line 1: want a bad-line error verdict, got %+v", got[1])
	}
}

// TestOverloadSheds proves saturation degrades to immediate 429s with a
// Retry-After hint, and that capacity freed readmits.
func TestOverloadSheds(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.MaxConcurrent = 1 })
	// Occupy the only slot the way an admitted request would.
	srv.gate.slots <- struct{}{}
	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	er := decodeBody[errorResponse](t, resp)
	if er.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", er.RetryAfterSeconds)
	}
	if n := srv.tel.Snapshot().Counters["serve_rejected"]; n == 0 {
		t.Error("serve_rejected counter not incremented")
	}
	// Free the slot: the same request is admitted.
	<-srv.gate.slots
	resp = postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRateLimitFairness proves per-key limiting is per key: one key
// exhausting its bucket is shed while another key is still admitted.
func TestRateLimitFairness(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.RatePerKey = 0.0001 // effectively no refill within the test
		c.BurstPerKey = 1
	})
	post := func(key string) int {
		b, _ := json.Marshal(classifyRequest{Target: &TargetSpec{Spec: "benign:crypto/aes-ttable/7"}})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(DefaultKeyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("alice"); got != http.StatusOK {
		t.Fatalf("alice first request: %d, want 200", got)
	}
	if got := post("alice"); got != http.StatusTooManyRequests {
		t.Fatalf("alice drained bucket: %d, want 429", got)
	}
	if got := post("bob"); got != http.StatusOK {
		t.Fatalf("bob must not pay for alice: %d, want 200", got)
	}
}

// TestHotReloadUnderLoad hammers /v1/classify from several goroutines
// while /reload swaps the repository repeatedly. Every classification
// must succeed with a clean verdict — in-flight scans keep their
// snapshot, new ones see the new contents — and the version must
// advance once per reload. Run under -race this is the hot-swap safety
// proof.
func TestHotReloadUnderLoad(t *testing.T) {
	entries := corpus(t)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Reload = func(string) (*detect.Repository, error) {
			r := &detect.Repository{}
			r.Replace(entries)
			return r, nil
		}
	})
	startVersion := srv.det.Repo.Version()

	const (
		clients   = 3
		perClient = 3
		reloads   = 5
	)
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
				if resp.StatusCode != http.StatusOK {
					errs <- "status " + resp.Status
					resp.Body.Close()
					continue
				}
				cr := decodeBody[classifyResponse](t, resp)
				if cr.Verdict == nil || cr.Verdict.Error != "" {
					errs <- "bad verdict"
				}
			}
		}()
	}
	for i := 0; i < reloads; i++ {
		resp := postJSON(t, ts.URL+"/reload", reloadRequest{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status %d", i, resp.StatusCode)
		}
		rr := decodeBody[reloadResponse](t, resp)
		if rr.Entries != len(entries) {
			t.Fatalf("reload %d: %d entries, want %d", i, rr.Entries, len(entries))
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("classification failed during reload: %s", e)
	}
	if got := srv.det.Repo.Version(); got != startVersion+reloads {
		t.Errorf("version = %d, want %d", got, startVersion+reloads)
	}
	if n := srv.tel.Snapshot().Counters["serve_reloads"]; n != reloads {
		t.Errorf("serve_reloads = %d, want %d", n, reloads)
	}
}

// TestDrainFlushesInflight proves graceful drain: a request in flight
// when Shutdown starts completes with its real verdict, requests
// arriving during the drain get 503, and Shutdown returns only after
// the in-flight work finished.
func TestDrainFlushesInflight(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	started := make(chan struct{})
	var once sync.Once
	faultinject.Enable(faultinject.ScanWorker, func(faultinject.Point, string) error {
		once.Do(func() { close(started); time.Sleep(300 * time.Millisecond) })
		return nil
	})
	t.Cleanup(faultinject.Reset)

	type result struct {
		status  int
		verdict Verdict
	}
	inflight := make(chan result, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
		cr := decodeBody[classifyResponse](t, resp)
		var v Verdict
		if cr.Verdict != nil {
			v = *cr.Verdict
		}
		inflight <- result{resp.StatusCode, v}
	}()
	<-started

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()
	// Once the drain flag is up, new requests must be turned away.
	for !srv.isDraining() {
		time.Sleep(time.Millisecond)
	}
	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "attack:FR-IAIK"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("during drain: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}
	if hz := decodeBody[healthzResponse](t, hresp); !hz.Draining || hz.Status != "draining" {
		t.Errorf("healthz during drain: %+v", hz)
	}

	r := <-inflight
	if r.status != http.StatusOK || r.verdict.Error != "" {
		t.Errorf("in-flight request was dropped by drain: status %d verdict %+v", r.status, r.verdict)
	}
	if err := <-shutdown; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestDrainUnblocksStream proves a streaming connection blocked reading
// its request body does not stall a drain: the server expires the read,
// flushes verdicts for everything accepted and closes the stream.
func TestDrainUnblocksStream(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	defer pw.Close()
	line, _ := json.Marshal(TargetSpec{Spec: "attack:FR-IAIK"})
	if _, err := pw.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no verdict line before drain: %v", sc.Err())
	}
	var v Verdict
	if err := json.Unmarshal(sc.Bytes(), &v); err != nil || v.Error != "" {
		t.Fatalf("bad verdict before drain: %q %v", sc.Text(), err)
	}
	// The connection now sits blocked in the body read. Drain must
	// unblock it and end the stream instead of waiting forever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown stalled on a blocked stream: %v", err)
	}
	if sc.Scan() {
		t.Errorf("unexpected line after drain: %q", sc.Text())
	}
}

// TestHealthzAndMetrics proves the operational endpoints: healthz
// reports the repository shape, metrics carries the serve counters.
func TestHealthzAndMetrics(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", hresp.StatusCode)
	}
	hz := decodeBody[healthzResponse](t, hresp)
	if hz.Status != "ok" || hz.Entries != srv.det.Repo.Len() || hz.Draining {
		t.Errorf("healthz = %+v", hz)
	}

	resp := postJSON(t, ts.URL+"/v1/classify", classifyRequest{Target: &TargetSpec{Spec: "benign:crypto/aes-ttable/7"}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", mresp.StatusCode)
	}
	snap := decodeBody[telemetry.Snapshot](t, mresp)
	if snap.Counters["serve_requests"] == 0 {
		t.Errorf("metrics missing serve_requests: %v", snap.Counters)
	}
	if snap.Gauges == nil || snap.Gauges["serve"] == nil {
		t.Errorf("metrics missing serve gauges: %v", snap.Gauges)
	}
}

// TestRejectsMalformedRequests pins the 4xx surface.
func TestRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"no targets", "{}", http.StatusBadRequest},
		{"both forms", `{"target":{"spec":"attack:FR-IAIK"},"targets":[{"spec":"attack:FR-IAIK"}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	getResp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/classify: status %d, want 405", getResp.StatusCode)
	}
}

// TestReloadUnconfigured pins the 501 when no reload source exists.
func TestReloadUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/reload", reloadRequest{})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("reload without source: status %d, want 501", resp.StatusCode)
	}
}
