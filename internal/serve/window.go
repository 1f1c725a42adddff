package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/exec"
	"repro/internal/panicsafe"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// windowParams parses the mode=window query knobs (window, stride,
// quiet-gap, all in cycles). Absent parameters select the package
// defaults; junk, negative or gap-leaving geometry is the client's
// error and maps to a 400.
func windowParams(q url.Values) (window.Config, error) {
	var cfg window.Config
	for _, p := range []struct {
		name string
		dst  *uint64
	}{
		{"window", &cfg.Size},
		{"stride", &cfg.Stride},
		{"quiet-gap", &cfg.QuietGap},
	} {
		s := q.Get(p.name)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad %s %q: want a nonnegative integer cycle count", p.name, s)
		}
		*p.dst = v
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// handleWindowStream is POST /v1/classify/stream?mode=window: each
// NDJSON TargetSpec runs on a fresh recording machine and replays
// through the online sliding-window detector (internal/window). One
// verdict line streams out per window as it closes — carrying the
// Window annotation — followed by the target's summary line, then the
// next target starts. Targets run sequentially: the ordered per-window
// verdict stream is the product, and interleaving targets would
// scramble it. Per-target fault isolation holds: a resolution, run or
// replay failure becomes that target's error line, never the
// connection's. See docs/WINDOWING.md.
func (s *Server) handleWindowStream(w http.ResponseWriter, r *http.Request, cfg window.Config) {
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

	// Full duplex for the same reason as the classify stream: verdict
	// lines flow while the client may still be writing targets.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	emit := func(v Verdict) {
		_ = enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Unblock a parked body read when the server drains, exactly as the
	// classify stream does.
	ctx := r.Context()
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

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	for pos := 0; ; pos++ {
		if s.isDraining() || ctx.Err() != nil {
			return
		}
		var ts TargetSpec
		if err := dec.Decode(&ts); err != nil {
			if errors.Is(err, io.EOF) || s.isDraining() || isTimeout(err) {
				return
			}
			// The byte stream is no longer trustworthy past a JSON error.
			emit(Verdict{ID: "line", Error: "bad target line: " + err.Error()})
			return
		}
		t := ts.target(pos)
		id := t.ID
		if t.Err != nil {
			emit(Verdict{ID: id, Error: t.Err.Error()})
			continue
		}
		var out window.Outcome
		werr := panicsafe.DoNotify(func() error {
			var err error
			out, err = window.Watch(ctx, s.det, t.Program, t.Victim, exec.DefaultConfig(), cfg, func(v window.Verdict) {
				emit(windowVerdict(id, v))
			})
			return err
		}, func(*panicsafe.PanicError) { s.tel.Inc(telemetry.PanicsRecovered) })
		if werr != nil {
			emit(Verdict{ID: id, Error: "watch: " + werr.Error()})
			continue
		}
		emit(windowSummary(id, out))
	}
}

// windowVerdict converts one per-window verdict to the wire.
func windowVerdict(id string, v window.Verdict) Verdict {
	wv := verdictFor(id, v.Result, nil, v.Err)
	wv.ModelLen = v.ModelLen
	if wv.Best != nil && wv.Best.Name == "" {
		// Quiet and gated windows never matched anything; an empty best
		// match is noise on the wire.
		wv.Best = nil
	}
	wv.Window = &WireWindow{
		Index:    v.Index,
		Start:    v.Start,
		End:      v.End,
		Events:   v.Events,
		ModelLen: v.ModelLen,
		Reason:   v.Reason,
	}
	return wv
}

// windowSummary converts a completed run's outcome to the target's
// final wire line.
func windowSummary(id string, out window.Outcome) Verdict {
	wv := verdictFor(id, out.Final, nil, nil)
	if wv.Best != nil && wv.Best.Name == "" {
		wv.Best = nil
	}
	sum := &WireWindowSummary{
		Windows:     out.Windows,
		Hits:        out.Hits,
		Quiet:       out.Quiet,
		Errors:      out.Errors,
		Detected:    out.Detected,
		FinalWindow: out.FinalWindow,
	}
	if lat, ok := out.LatencyToDetection(); ok {
		sum.DetectionCycle = out.DetectionCycle
		sum.LatencyToDetection = lat
	}
	wv.Summary = sum
	return wv
}
