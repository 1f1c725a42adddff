package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"

	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
	"repro/internal/telemetry"
	"repro/internal/vcache"
)

// ServerConfig tunes a shard server.
type ServerConfig struct {
	// Workers is each engine's worker-pool size; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Telemetry optionally instruments the server's engines.
	Telemetry *telemetry.Collector
	// Version is the serving repository's version, advertised on
	// /healthz so coordinators can spot a replica loaded from a stale
	// repository (0 = unknown, comparison skipped client-side).
	Version uint64
	// WarmIndex, when true, pre-builds the indexed scan engine for the
	// default indexed semantics (prune and index on, default similarity
	// options, IndexClusters clusters) at server start, so
	// the first indexed /scan does not pay the O(n²) index
	// construction. Requests with other semantics still build their
	// own engines lazily, exactly as without warming.
	WarmIndex bool
	// IndexClusters is the cluster count the warmed indexed engine
	// uses (<= 0 selects the ~sqrt(N) default). It only shapes the
	// warmed engine; clients' requested cluster counts always win for
	// their own requests.
	IndexClusters int
}

// Server hosts one repository slice behind the shard HTTP protocol:
// POST /scan scores a target against the whole slice, POST /cutoff
// receives mid-scan global-best broadcasts, GET /healthz reports the
// slice size for the partition handshake. It backs the
// `scaguard shard-serve` CLI mode and the loopback servers in tests.
type Server struct {
	models []*model.CSTBBS
	cfg    ServerConfig
	cache  *scan.DistCache

	// sliceHash fingerprints the served slice; /healthz advertises it
	// as the content fingerprint behind the staleness handshake.
	sliceHash string

	// engines memoizes one engine per distinct scan semantics a client
	// asked for. They share the server's one DistCache: the Levenshtein
	// memo is keyed on block content, which pruning and term weights do
	// not change.
	mu      sync.Mutex
	engines map[scan.Semantics]*scan.Engine

	scans sync.Map // scan id → *scan.Cutoff of the in-flight scan
}

// NewServer builds a server over this shard's slice of the repository,
// in ascending-global-index order (Router.Partition's output on the
// serving side).
func NewServer(models []*model.CSTBBS, cfg ServerConfig) *Server {
	s := &Server{
		models:  append([]*model.CSTBBS(nil), models...),
		cfg:     cfg,
		cache:   scan.NewDistCache(),
		engines: make(map[scan.Semantics]*scan.Engine),
	}
	s.sliceHash = sliceHash(s.models)
	if cfg.WarmIndex {
		s.engine(scan.Config{Prune: true, Index: true, IndexClusters: cfg.IndexClusters,
			Sim: similarity.DefaultOptions()}.Semantics())
	}
	return s
}

// Len returns the number of entries in the served slice.
func (s *Server) Len() int { return len(s.models) }

// engine returns the memoized engine for one scan semantics, building
// it on first use.
func (s *Server) engine(sem scan.Semantics) *scan.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[sem]; ok {
		return e
	}
	cfg := sem.Config()
	cfg.Workers, cfg.Cache, cfg.Telemetry = s.cfg.Workers, s.cache, s.cfg.Telemetry
	e := scan.New(s.models, cfg)
	s.engines[sem] = e
	return e
}

// Handler returns the shard protocol's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/scan", s.handleScan)
	mux.HandleFunc("/cutoff", s.handleCutoff)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req scanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad scan request: "+err.Error(), http.StatusBadRequest)
		return
	}
	ms, best, err := s.scanOnce(r.Context(), req)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Client went away; the status is a courtesy for logs.
			status = http.StatusServiceUnavailable
		}
		http.Error(w, "scan failed: "+err.Error(), status)
		return
	}
	resp := scanResponse{Matches: make([]wireMatch, len(ms))}
	for i, m := range ms {
		resp.Matches[i] = wireMatch{Index: m.Index, Score: m.Score, Pruned: m.Pruned}
	}
	if !math.IsInf(best, 1) {
		resp.Best = &best
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// scanOnce runs one slice scan for a /scan request: pick the memoized
// engine for the requested semantics, seed the pruning cutoff, register
// the scan id for mid-flight /cutoff broadcasts, scan. best is the
// cutoff cell's final best exact distance (+Inf when pruning was off or
// nothing scored), which the reply carries for cross-shard cutoff
// folding.
func (s *Server) scanOnce(ctx context.Context, req scanRequest) (ms []scan.Match, best float64, err error) {
	eng := s.engine(req.semantics())

	cut := scan.NewCutoff()
	if req.Cutoff != nil {
		cut.Update(*req.Cutoff)
	}
	if req.ID != "" {
		// Register before scanning so /cutoff broadcasts race-free find
		// the in-flight scan; a broadcast for a finished (deleted) scan
		// is a no-op by design.
		if cell, loaded := s.scans.LoadOrStore(req.ID, cut); loaded {
			// A client can re-send an id whose first copy is still
			// scanning. The re-sent request is idempotent: reuse the
			// in-flight cutoff cell (broadcasts for the id keep
			// reaching both copies) and serve this request its own
			// result. The first registrant owns the map entry and
			// deletes it when it finishes.
			cut = cell.(*scan.Cutoff)
			if req.Cutoff != nil {
				cut.Update(*req.Cutoff)
			}
		} else {
			defer s.scans.Delete(req.ID)
		}
	}

	ms, err = eng.ScanCutoffCtx(ctx, &req.Target, cut)
	if err != nil {
		return nil, 0, err
	}
	return ms, cut.Best(), nil
}

func (s *Server) handleCutoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req cutoffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad cutoff request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if c, ok := s.scans.Load(req.ID); ok {
		c.(*scan.Cutoff).Update(req.Best)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("{}"))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(healthResponse{
		Entries: len(s.models),
		Version: s.cfg.Version,
		Slice:   s.sliceHash,
	})
}

// Serve binds addr (e.g. ":7070"; an explicit port 0 picks a free one)
// and serves the shard protocol until shutdown is called. It returns
// the bound address so callers — and the shard-smoke test harness —
// can hand it to NewRemoteShard.
//
// The shutdown function drains gracefully until ctx expires, then
// force-closes whatever remains, so it always terminates the server
// within the caller's deadline. (Graceful-only shutdown can stall for
// seconds on a connection a client dialed but never used — net/http
// leaves such conns open for a grace window of its own — which would
// otherwise turn every fleet teardown into a multi-second wait.) A
// ctx error from the graceful phase is still returned so callers can
// tell a drain from a forced close.
func (s *Server) Serve(addr string) (bound string, shutdown func(context.Context) error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("shard: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		if err != nil {
			if cerr := srv.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
		if serr := <-done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}, nil
}

// sliceHash fingerprints an ordered repository slice as the hash of its
// models' content hashes (vcache.TargetHash), sensitive to membership
// and order. Servers advertise it on /healthz and coordinators expect
// it, so a replica serving other content probes stale.
func sliceHash(models []*model.CSTBBS) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(models)))
	h.Write(buf[:])
	for _, m := range models {
		h.Write([]byte(vcache.TargetHash(m)))
	}
	return hex.EncodeToString(h.Sum(nil))
}
