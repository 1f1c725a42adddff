package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
)

// Handler serves the collector's current snapshot. The snapshot is
// taken per request, so it is always live.
//
// The default representation is indented JSON. Prometheus text
// exposition is selected by content negotiation — an Accept header
// naming text/plain or application/openmetrics-text (what a Prometheus
// scraper sends) — or explicitly with ?format=prometheus.
func Handler(c *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", PrometheusContentType)
			_ = c.Snapshot().WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.Snapshot())
	})
}

// wantsPrometheus implements the handler's format selection.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// Serve starts an HTTP server on addr exposing the live JSON snapshot
// at /metrics (and at /). It returns the bound listener address — so
// addr may use port 0 — and a shutdown func. Serving happens on a
// background goroutine; errors after a successful bind are dropped.
func Serve(addr string, c *Collector) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(c))
	mux.Handle("/", Handler(c))
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
