// Package serve is the detection-as-a-service front end: a long-lived
// HTTP/JSON server that accepts classification requests from many
// concurrent clients and fronts whatever scan backend its detector is
// configured with — one engine or a remote `scaguard shard-serve`
// fleet. It is the deployment shape the
// ROADMAP's "millions of users" story asks for: callers stop owning a
// process and start sharing one.
//
// Every target runs the detector's one per-target call,
// detect.Detector.ClassifyCtx, which carries the per-target deadline
// and panic isolation; batches and NDJSON connections run it through
// the ordered streaming worker pool (internal/stream). One malformed
// program in a batch or a stream becomes one error verdict, never a
// failed request. Across
// connections it adds what a multi-tenant front end needs and a single
// pipeline cannot provide:
//
//   - Admission control: a global concurrency cap plus a per-API-key
//     token bucket. Requests that cannot be admitted are shed
//     immediately with 429 and a Retry-After hint — overload degrades
//     to fast rejections, never to hangs or unbounded queues.
//   - Zero-downtime hot reload: POST /reload swaps the repository's
//     contents atomically (detect.Repository.Replace). In-flight scans
//     keep their snapshot, the next classification sees the new
//     contents, and version-keyed verdict-cache entries invalidate
//     naturally.
//   - Graceful drain: Shutdown stops intake (new requests get 503,
//     /healthz flips to draining so load balancers route away),
//     flushes every in-flight request and stream, then returns. No
//     accepted request is ever dropped.
//
// Endpoints: POST /v1/classify (single + batch), POST
// /v1/classify/stream (NDJSON in/out), POST /reload, GET /healthz, GET
// /metrics (the telemetry snapshot, JSON or Prometheus). The wire
// format preserves scores exactly, so exact-mode verdicts served over
// HTTP are bit-identical to direct detect.Classify calls — enforced by
// this package's golden-corpus tests. See docs/SERVING.md for the
// operator guide.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// DefaultMaxConcurrent is the global concurrency cap when Config
// leaves it unset: high enough for a healthy fleet's worth of
// concurrent clients, low enough to bound memory under a stampede.
const DefaultMaxConcurrent = 256

// DefaultKeyHeader is the request header admission control reads the
// client identity from for per-key limiting; requests without it share
// the "" bucket.
const DefaultKeyHeader = "X-API-Key"

// maxRequestBody bounds a /v1/classify request body (32 MiB — far
// above any sane batch of inline programs, far below harm).
const maxRequestBody = 32 << 20

// Config tunes the detection server. Detector is required; the zero
// value of everything else is a working single-tenant default.
type Config struct {
	// Detector serves every classification. It must not be reconfigured
	// while the server runs; its repository may grow through Add and be
	// swapped through /reload.
	Detector *detect.Detector
	// MaxConcurrent caps admitted in-flight requests across all
	// clients; <= 0 selects DefaultMaxConcurrent. Excess requests are
	// shed with 429, never queued.
	MaxConcurrent int
	// RatePerKey, when > 0, is each API key's sustained admission rate
	// in targets/sec (a batch of n charges n tokens, clamped to the
	// burst). BurstPerKey is the bucket size; <= 0 selects
	// max(1, 2*RatePerKey).
	RatePerKey  float64
	BurstPerKey int
	// StreamWorkers is the number of concurrent classifications per
	// batch request and per /v1/classify/stream connection; <= 0
	// selects GOMAXPROCS. Responses always align with request order.
	StreamWorkers int
	// Reload, when non-nil, supplies the repository contents for POST
	// /reload: it receives the request's optional path override and
	// returns the freshly loaded repository, whose entries replace the
	// serving repository's atomically. nil disables the endpoint (501).
	Reload func(path string) (*detect.Repository, error)
	// Telemetry instruments the server (serve_* counters, the
	// serve_request stage, the "serve" gauge source) and is served at
	// /metrics. Share it with the Detector to get one unified snapshot.
	// nil disables instrumentation; /metrics then serves empty
	// snapshots.
	Telemetry *telemetry.Collector
}

// Server is the detection service. Create with New, expose with
// Handler (any http.Server or httptest) or Serve (own listener), stop
// with Shutdown.
type Server struct {
	cfg  Config
	det  *detect.Detector
	tel  *telemetry.Collector
	gate *gate

	// drainMu orders the draining flag against in-flight accounting:
	// enter() may not admit a request after Shutdown decided to wait.
	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup
	drainCh  chan struct{}

	// reloadMu serializes /reload swaps (each is atomic either way; the
	// lock keeps responses' entry counts truthful).
	reloadMu sync.Mutex

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New builds a server from cfg. It panics on a nil Detector — there is
// nothing to serve.
func New(cfg Config) *Server {
	if cfg.Detector == nil {
		panic("serve: Config.Detector is required")
	}
	s := &Server{
		cfg:     cfg,
		det:     cfg.Detector,
		tel:     cfg.Telemetry,
		gate:    newGate(cfg.MaxConcurrent, cfg.RatePerKey, cfg.BurstPerKey),
		drainCh: make(chan struct{}),
	}
	s.tel.RegisterGauges("serve", s.gaugeSnapshot)
	return s
}

// gaugeSnapshot is the "serve" gauge source: admitted in-flight
// requests, the cap, live rate-limit keys and the draining flag.
func (s *Server) gaugeSnapshot() map[string]uint64 {
	used, capacity := s.gate.inflight()
	var draining uint64
	s.drainMu.Lock()
	if s.draining {
		draining = 1
	}
	s.drainMu.Unlock()
	return map[string]uint64{
		"inflight":     uint64(used),
		"max_inflight": uint64(capacity),
		"keys":         uint64(s.gate.keys()),
		"draining":     draining,
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/v1/classify/stream", s.handleClassifyStream)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", telemetry.Handler(s.tel))
	return mux
}

// Serve binds addr (port 0 picks a free port) and serves until
// Shutdown. It returns the bound address immediately; serving happens
// on a background goroutine.
func (s *Server) Serve(addr string) (bound string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the server: stop intake (new requests are rejected
// with 503 and /healthz reports draining), signal in-flight streaming
// connections to stop reading further targets, wait for every admitted
// request to finish, then close the listener. ctx bounds the wait; on
// expiry Shutdown returns the context's error with requests possibly
// still in flight (the caller is giving up, the server did not drop
// them). Safe to call without Serve (e.g. behind httptest) and more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		return srv.Shutdown(ctx)
	}
	return nil
}

// enter admits a request into the in-flight account unless the server
// is draining. Every true return must be paired with s.inflight.Done().
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// writeJSON writes v with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the error reply form.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// shed writes the 429 overload reply with its Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, retryAfter time.Duration) {
	s.tel.Inc(telemetry.ServeRejected)
	secs := retryAfterSeconds(retryAfter)
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{
		Error:             "overloaded: admission gate saturated",
		RetryAfterSeconds: secs,
	})
}

// drainingReply writes the 503 sent while shutting down.
func drainingReply(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:             "draining: server is shutting down",
		RetryAfterSeconds: 1,
	})
}

// handleClassify is POST /v1/classify: one target (unary reply) or a
// batch (array reply). Per-target failures become error verdicts; only
// a malformed request fails the call.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.enter() {
		drainingReply(w)
		return
	}
	defer s.inflight.Done()

	var req classifyRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad classify request: "+err.Error())
		return
	}
	if req.Target != nil && len(req.Targets) > 0 {
		writeError(w, http.StatusBadRequest, "set target or targets, not both")
		return
	}
	targets := req.Targets
	if req.Target != nil {
		targets = []TargetSpec{*req.Target}
	}
	if len(targets) == 0 {
		writeError(w, http.StatusBadRequest, "no targets")
		return
	}

	release, retryAfter, err := s.gate.admit(r.Header.Get(DefaultKeyHeader), len(targets))
	if err != nil {
		s.shed(w, retryAfter)
		return
	}
	defer release()
	s.tel.Inc(telemetry.ServeRequests)
	start := s.tel.Now()
	defer func() { s.tel.ObserveSince(telemetry.StageServeRequest, start) }()

	if req.Target != nil {
		v := s.classifyOne(r.Context(), targets[0], 0)
		writeJSON(w, http.StatusOK, classifyResponse{Verdict: &v})
		return
	}
	writeJSON(w, http.StatusOK, classifyResponse{Verdicts: s.classifyBatch(r.Context(), targets)})
}

// classifyOne resolves and classifies one target. It runs the
// classification once: a verdict is a deterministic function of the
// target and the repository, and the one transient step, the
// remote-shard RPC, is failed over and bounded inside the shard layer
// (docs/SERVING.md "Where faults are handled"). Panics
// come back from ClassifyCtx as the target's error.
func (s *Server) classifyOne(ctx context.Context, t TargetSpec, pos int) Verdict {
	st := t.target(pos)
	if st.Err != nil {
		return verdictFor(st.ID, detect.Result{}, nil, st.Err)
	}
	res, m, err := s.det.ClassifyCtx(ctx, st.Program, st.Victim)
	return verdictFor(st.ID, res, m, err)
}

// classifyBatch runs a batch through the ordered streaming worker
// pool. Unresolvable specs enter the stream as error targets, so every
// verdict lands in its request position.
func (s *Server) classifyBatch(ctx context.Context, targets []TargetSpec) []Verdict {
	in := make(chan stream.Target)
	out := stream.Classify(ctx, s.det, in, s.cfg.StreamWorkers)
	go func() {
		defer close(in)
		for i, t := range targets {
			select {
			case in <- t.target(i):
			case <-ctx.Done():
				return
			}
		}
	}()
	verdicts := make([]Verdict, len(targets))
	for r := range out {
		verdicts[r.Seq] = verdictFor(r.ID, r.Verdict, r.Model, r.Err)
	}
	// Targets the producer never sent (cancellation mid-batch) fail
	// with the context's error; label() never yields an empty ID, so an
	// empty ID marks the unfilled slots.
	for i, t := range targets {
		if verdicts[i].ID == "" {
			v := Verdict{ID: t.label(i), Error: "target was not classified"}
			if err := ctx.Err(); err != nil {
				v.Error = err.Error()
			}
			verdicts[i] = v
		}
	}
	return verdicts
}

// handleReload is POST /reload: load fresh repository contents through
// Config.Reload and swap them in atomically. In-flight scans keep
// their snapshot; the version bump invalidates verdict-cache entries
// and triggers the next classification's engine rebuild.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.enter() {
		drainingReply(w)
		return
	}
	defer s.inflight.Done()
	if s.cfg.Reload == nil {
		writeError(w, http.StatusNotImplemented, "reload not configured")
		return
	}
	// An empty body means "reload the default source"; anything else
	// must parse.
	var req reloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad reload request: "+err.Error())
		return
	}
	if err := faultinject.Fire(faultinject.ServeReload, req.Path); err != nil {
		writeError(w, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	fresh, err := s.cfg.Reload(req.Path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	s.det.Repo.Replace(fresh.Entries)
	s.tel.Inc(telemetry.ServeReloads)
	writeJSON(w, http.StatusOK, reloadResponse{
		Entries: s.det.Repo.Len(),
		Version: s.det.Repo.Version(),
	})
}

// handleHealthz is GET /healthz: 200 {"status":"ok"} while serving,
// 503 {"status":"draining"} during shutdown so load balancers route
// away before intake actually stops.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	resp := healthzResponse{
		Status:   "ok",
		Entries:  s.det.Repo.Len(),
		Version:  s.det.Repo.Version(),
		Draining: draining,
	}
	status := http.StatusOK
	if draining {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
