package shard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/retry"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

// Scan ids name one RPC attempt for /cutoff broadcast routing. They
// must be process-unique: a random per-process nonce plus an atomic
// sequence. Earlier versions derived them from the client struct's %p
// address, which both leaked heap addresses onto the wire and could
// recur once the garbage collector reused the address — a recurring id
// would collide with an unrelated in-flight scan on the server.
var (
	scanSeq   atomic.Uint64
	scanNonce = func() string {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand does not fail on supported platforms; a loud
			// panic at init beats colliding scan ids at runtime.
			panic(fmt.Sprintf("shard: seeding scan-id nonce: %v", err))
		}
		return hex.EncodeToString(b[:])
	}()
)

// newScanID mints a fresh process-unique scan id. Every call returns a
// distinct id — retried RPC attempts mint their own, so a retry can
// never collide with its still-running predecessor on the server.
func newScanID() string {
	return scanNonce + "-" + strconv.FormatUint(scanSeq.Add(1), 10)
}

// RemoteConfig tunes the client side of a remote shard.
type RemoteConfig struct {
	// Timeout bounds each individual RPC (default 30s; the coordinator's
	// ShardTimeout separately bounds the whole per-shard scan, retries
	// included).
	Timeout time.Duration
	// Retry re-sends failed scan RPCs; the zero policy sends once.
	// A per-attempt Timeout expiry counts as transient (the next attempt
	// gets a fresh deadline and a fresh scan id); only the caller's own
	// context going dead is permanent and never retried.
	Retry retry.Policy
	// Telemetry counts remote retries and cutoff broadcasts.
	Telemetry *telemetry.Collector
	// Version is the coordinator-side repository version; when both it
	// and the server's advertised version are non-zero (and the server
	// offers no content fingerprint), Check treats a mismatch as
	// unhealthy. NewRemoteCoordinator threads it into every replica's
	// ExpectContent alongside the partition's content fingerprint.
	Version uint64
	// Client optionally overrides the HTTP client (tests inject
	// httptest transports); Timeout is applied per-request via context
	// either way.
	Client *http.Client
}

// RemoteShard speaks HTTP/JSON to a Server hosting one repository
// slice on another machine. Construction does not dial: a shard that is
// down at build time costs nothing until a scan needs it, and then it
// degrades that scan (partial results + error through the coordinator)
// rather than failing the build or hanging.
type RemoteShard struct {
	addr     string         // as given, the shard's Name
	base     string         // normalized URL prefix
	expected int            // partition-derived entry count
	sem      scan.Semantics // scan semantics every request carries
	cfg      RemoteConfig
	client   *http.Client

	// Content expectation for Check, set via ExpectContent. Zero values
	// skip the respective comparison (old servers, unknown content).
	expectVersion uint64
	expectSlice   string
}

// NewRemoteShard builds a client for the shard at addr ("host:port" or
// a full http:// URL) which both sides' Routers agree holds expected
// entries. scfg carries the scan semantics this client's detector wants
// (scfg.Semantics() travels with every request); Workers, Cache and the
// other operational fields are server-side concerns and ignored.
func NewRemoteShard(addr string, expected int, scfg scan.Config, cfg RemoteConfig) *RemoteShard {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &RemoteShard{addr: addr, base: base, expected: expected, sem: scfg.Semantics(), cfg: cfg, client: client}
}

// Name implements Shard (the address identifies the shard in errors and
// fault injection).
func (s *RemoteShard) Name() string { return s.addr }

// Len implements Shard with the partition-derived entry count; Check
// verifies the server agrees.
func (s *RemoteShard) Len() int { return s.expected }

// ExpectContent records what this client believes the server serves:
// the coordinator-side repository version and the slice's content
// fingerprint (sliceHash over the shard's models). Check then
// treats a mismatching server as unhealthy, so a replica restarted
// against a stale repository is quarantined by the health prober
// instead of silently answering with yesterday's attack models. Zero
// values skip the respective comparison. Call before the shard is used;
// not safe concurrently with Check.
func (s *RemoteShard) ExpectContent(version uint64, sliceHash string) {
	s.expectVersion = version
	s.expectSlice = sliceHash
}

// CloseIdleConnections drops this shard's pooled keep-alive
// connections. The coordinator calls it on Close so a torn-down engine
// releases its sockets (and their transport goroutines) instead of
// waiting out the transport's idle timeout; with the default client
// this flushes the process-wide shared pool, which is the intended
// "we are done scanning" semantics.
func (s *RemoteShard) CloseIdleConnections() { s.client.CloseIdleConnections() }

// Check asks the server's /healthz whether it is alive and holds the
// slice this client expects — the partition handshake for smoke tests,
// CLI startup, and the health prober's re-admission probe. Beyond
// liveness it verifies the entry count and, when ExpectContent was
// called, the slice content fingerprint: a reachable-but-stale replica
// is reported unhealthy, not failed over *to*.
func (s *RemoteShard) Check(ctx context.Context) error {
	var h healthResponse
	if err := s.roundTrip(ctx, "/healthz", nil, &h); err != nil {
		return err
	}
	if h.Entries != s.expected {
		return fmt.Errorf("shard: %s holds %d entries, router expects %d — repository or partition mismatch", s.addr, h.Entries, s.expected)
	}
	if s.expectSlice != "" && h.Slice != "" {
		// The content fingerprint is the authoritative comparison: it
		// proves the replica serves byte-equivalent models regardless of
		// how many reloads either side has seen.
		if h.Slice != s.expectSlice {
			return fmt.Errorf("shard: %s serves slice fingerprint %.12s…, coordinator expects %.12s… — stale replica (reload it)", s.addr, h.Slice, s.expectSlice)
		}
		return nil
	}
	if s.expectVersion != 0 && h.Version != 0 && h.Version != s.expectVersion {
		// Version-only fallback for servers predating the slice
		// fingerprint. Weaker: a front-end /reload bumps the version
		// without changing content, so only use it when no fingerprint is
		// available from the server.
		return fmt.Errorf("shard: %s serves repository version %d, coordinator expects %d — stale replica (reload it)", s.addr, h.Version, s.expectVersion)
	}
	return nil
}

// Scan implements Shard: one POST /scan carrying the target and the
// current cutoff, retried per the policy, while a forwarder goroutine
// broadcasts every improvement of the shared cutoff to the server for
// the duration of the scan. The reply's final best is folded back into
// the shared cutoff for the shards still running.
//
// Each attempt is self-contained: it mints a fresh scan id, re-seeds
// the cutoff from the shared cell (tighter on a retry, since other
// shards kept scanning) and runs its own broadcast forwarder. A retry
// therefore never re-sends the id of a timed-out first attempt that may
// still be scanning on the server.
func (s *RemoteShard) Scan(ctx context.Context, bbs *model.CSTBBS, cut *scan.Cutoff) ([]scan.Match, error) {
	base := newScanRequest(bbs, s.sem)

	// A failed attempt is transient — and worth a fresh attempt — unless
	// the caller's own context died. The error alone cannot tell: a
	// per-RPC timeout (roundTrip's derived deadline) surfaces as
	// context.DeadlineExceeded too, but it expires one attempt, not the
	// scan; only ctx itself going dead is permanent.
	transient := func(err error) bool { return ctx.Err() == nil }
	var resp scanResponse
	err := s.cfg.Retry.Do(ctx, transient, func(n int, err error) {
		s.cfg.Telemetry.Inc(telemetry.ShardRemoteRetries)
	}, func() error {
		req := base
		if s.sem.Prune && cut != nil {
			req.ID = newScanID()
			if best := cut.Best(); !math.IsInf(best, 1) {
				req.Cutoff = &best
			}
			stop := s.forwardCutoffs(ctx, req.ID, cut)
			defer stop()
		}
		resp = scanResponse{}
		return s.roundTrip(ctx, "/scan", &req, &resp)
	})
	if err != nil {
		return nil, err
	}
	ms, err := fromWireMatches(resp.Matches, s.expected)
	if err != nil {
		return nil, err
	}
	if s.sem.Prune && cut != nil && resp.Best != nil {
		cut.Update(*resp.Best)
	}
	return ms, nil
}

// forwardCutoffs starts the broadcast forwarder: every time the shared
// cutoff improves, POST the new best to the server so its in-flight
// scan tightens its early abandoning. Pushes are best-effort — a lost
// broadcast costs pruning efficiency, never correctness — and the
// goroutine exits when the scan finishes or the context dies.
func (s *RemoteShard) forwardCutoffs(ctx context.Context, id string, cut *scan.Cutoff) (stop func()) {
	done := make(chan struct{})
	go func() {
		for {
			changed := cut.Changed()
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-changed:
			}
			s.cfg.Telemetry.Inc(telemetry.ShardCutoffBroadcasts)
			_ = s.roundTrip(ctx, "/cutoff", &cutoffRequest{ID: id, Best: cut.Best()}, nil)
		}
	}()
	return func() { close(done) }
}

// roundTrip is one RPC: POST in (or GET when in is nil) under the
// per-RPC timeout, decode a 200 into out. The shard.remote.rpc
// failpoint fires before every request — inside the retry loop, so
// tests can prove a transient network fault is absorbed.
func (s *RemoteShard) roundTrip(ctx context.Context, path string, in, out any) error {
	if err := faultinject.Fire(faultinject.ShardRemoteRPC, path); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		enc, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("shard: encode %s: %w", path, err)
		}
		method, body = http.MethodPost, bytes.NewReader(enc)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, body)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("shard: %s %s: %w", s.addr, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("shard: %s %s: status %d: %s", s.addr, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard: %s %s: decode: %w", s.addr, path, err)
	}
	return nil
}
