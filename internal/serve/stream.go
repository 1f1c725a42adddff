package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// handleClassifyStream is POST /v1/classify/stream: newline-delimited
// JSON TargetSpec values in, one NDJSON Verdict line per input line
// out, in input order. The connection is one ordered worker pool
// (internal/stream): targets are classified as they arrive with
// bounded buffering and per-target fault isolation, and a slow reader
// of the response exerts backpressure all the way to the request body.
//
// A line that fails to resolve gets an error verdict line in its
// place; a line that fails to parse as JSON gets an error verdict line
// and ends the stream (the byte stream is no longer trustworthy). On server drain
// the connection stops reading further targets, flushes verdicts for
// everything accepted, and closes.
//
// ?mode=window switches the connection to the online sliding-window
// variant (handleWindowStream): per-window verdict lines plus a
// summary line per target, tuned by the window/stride/quiet-gap query
// parameters.
func (s *Server) handleClassifyStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "classify":
	case "window":
		wcfg, err := windowParams(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.handleWindowStream(w, r, wcfg)
		return
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want classify or window)", mode))
		return
	}
	if !s.enter() {
		drainingReply(w)
		return
	}
	defer s.inflight.Done()
	release, retryAfter, err := s.gate.admit(r.Header.Get(DefaultKeyHeader), 1)
	if err != nil {
		s.shed(w, retryAfter)
		return
	}
	defer release()
	s.tel.Inc(telemetry.ServeRequests)
	start := s.tel.Now()
	defer func() { s.tel.ObserveSince(telemetry.StageServeRequest, start) }()

	// HTTP/1 servers are half-duplex by default: the first response
	// write would try to drain the unread request body, deadlocking
	// against a client that streams targets as verdicts come back.
	// Full duplex is exactly this endpoint's contract. (HTTP/2 is
	// always full duplex; the call failing is fine.)
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Send the headers now: a client streaming targets interactively
	// blocks on them before it writes its first line.
	if flusher != nil {
		flusher.Flush()
	}
	ctx := r.Context()
	in := make(chan stream.Target)
	out := stream.Classify(ctx, s.det, in, s.cfg.StreamWorkers)

	// A blocked body read must not stall a drain forever: when the
	// server starts draining, expire the connection's read deadline so
	// the decoder unblocks and the reader stops intake cleanly.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.drainCh:
			_ = rc.SetReadDeadline(time.Now())
		case <-ctx.Done():
		case <-done:
		}
	}()

	// Reader: every input line enters the stream, an unresolvable one
	// as an error target and an unparsable one as a final error target,
	// so the ordered output holds exactly one verdict per line.
	go func() {
		defer close(in)
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
		for pos := 0; ; pos++ {
			select {
			case <-s.drainCh:
				return
			case <-ctx.Done():
				return
			default:
			}
			var ts TargetSpec
			err := dec.Decode(&ts)
			if err != nil && (errors.Is(err, io.EOF) || s.isDraining() || isTimeout(err)) {
				return
			}
			var t stream.Target
			if err != nil {
				t = stream.Target{ID: "line", Err: fmt.Errorf("bad target line: %w", err)}
			} else {
				t = ts.target(pos)
			}
			select {
			case in <- t:
			case <-ctx.Done():
				return
			}
			if err != nil {
				// The byte stream is no longer trustworthy past a JSON
				// error.
				return
			}
		}
	}()

	enc := json.NewEncoder(w)
	for res := range out {
		_ = enc.Encode(verdictFor(res.ID, res.Verdict, res.Model, res.Err))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// isDraining reports the server's drain flag.
func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// isTimeout reports a deadline-expired read — the drain watcher's way
// of unblocking the decoder.
func isTimeout(err error) bool {
	var ne interface{ Timeout() bool }
	if errors.As(err, &ne) {
		return ne.Timeout()
	}
	return errors.Is(err, os.ErrDeadlineExceeded)
}
