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

	"repro/internal/model"
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
// distinct id, so a scan sent after an earlier one timed out on the
// client can never collide with its still-running predecessor on the
// server.
func newScanID() string {
	return scanNonce + "-" + strconv.FormatUint(scanSeq.Add(1), 10)
}

// rpcTimeout bounds each individual RPC. The coordinator's ShardTimeout
// and the replica group's AttemptTimeout bound a scan more tightly when
// set; this only keeps a hung connection from living forever.
const rpcTimeout = 30 * time.Second

// RemoteConfig tunes the client side of a remote shard.
type RemoteConfig struct {
	// Telemetry counts cutoff broadcasts.
	Telemetry *telemetry.Collector
	// Version is the coordinator-side repository version; when both it
	// and the server's advertised version are non-zero (and the server
	// offers no content fingerprint), Check treats a mismatch as
	// unhealthy. NewRemoteCoordinator threads it into every replica's
	// ExpectContent alongside the partition's content fingerprint.
	Version uint64
}

// RemoteShard speaks HTTP/JSON to a Server hosting one repository
// slice on another machine. Construction does not dial: a shard that is
// down at build time costs nothing until a scan needs it, and then it
// fails that scan — the replica group fails over to the next replica,
// and a group with none left degrades the scan (partial results + error
// through the coordinator) rather than failing the build or hanging.
type RemoteShard struct {
	addr     string         // as given, the shard's Name
	base     string         // normalized URL prefix
	expected int            // partition-derived entry count
	sem      scan.Semantics // scan semantics every request carries
	cfg      RemoteConfig

	// Content expectation for Check, set via ExpectContent. Zero values
	// skip the respective comparison (old servers, unknown content).
	expectVersion uint64
	expectSlice   string
}

// NewRemoteShard builds a client for the shard at addr ("host:port" or
// a full http:// URL) which both sides' Routers agree holds expected
// entries. sem is the scan semantics this client's detector wants; it
// travels with every request.
func NewRemoteShard(addr string, expected int, sem scan.Semantics, cfg RemoteConfig) *RemoteShard {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &RemoteShard{addr: addr, base: base, expected: expected, sem: sem, cfg: cfg}
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
// current cutoff, while a forwarder goroutine broadcasts every
// improvement of the shared cutoff to the server for the duration of
// the scan. The reply's final best is folded back into the shared
// cutoff for the shards still running. A failed RPC is not re-sent:
// the replica group fails over to the next replica instead.
func (s *RemoteShard) Scan(ctx context.Context, bbs *model.CSTBBS, cut *scan.Cutoff) ([]scan.Match, error) {
	req := newScanRequest(bbs, s.sem)
	pruned := s.sem.Prune && cut != nil
	stop := func() {}
	if pruned {
		req.ID = newScanID()
		if best := cut.Best(); !math.IsInf(best, 1) {
			req.Cutoff = &best
		}
		stop = s.forwardCutoffs(ctx, req.ID, cut)
	}
	var resp scanResponse
	err := s.roundTrip(ctx, "/scan", &req, &resp)
	stop()
	if err != nil {
		return nil, err
	}
	ms, err := fromWireMatches(resp.Matches, s.expected)
	if err != nil {
		return nil, err
	}
	if pruned && resp.Best != nil {
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
// per-RPC timeout, decode a 200 into out.
func (s *RemoteShard) roundTrip(ctx context.Context, path string, in, out any) error {
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
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
	resp, err := http.DefaultClient.Do(req)
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
