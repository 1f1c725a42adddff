package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPrometheusExposition(t *testing.T) {
	c := NewCollector()
	c.Add(ScanEntriesExact, 6)
	c.Add(ScanEntriesAbandoned, 2)
	c.Inc(PanicsRecovered)
	c.stages[StageScan].observe(3 * time.Microsecond)
	c.stages[StageScan].observe(500 * time.Microsecond)
	c.RegisterGauges("repository", func() map[string]uint64 {
		return map[string]uint64{"entries": 7}
	})
	text := c.Snapshot().Prometheus()

	for _, want := range []string{
		"# TYPE scaguard_scan_entries_exact_total counter",
		"scaguard_scan_entries_exact_total 6",
		"scaguard_panics_recovered_total 1",
		"# TYPE scaguard_repository_entries gauge",
		"scaguard_repository_entries 7",
		"# TYPE scaguard_prune_rate gauge",
		"scaguard_prune_rate 0.25",
		"# TYPE scaguard_stage_duration_seconds histogram",
		`scaguard_stage_duration_seconds_bucket{stage="scan",le="+Inf"} 2`,
		`scaguard_stage_duration_seconds_count{stage="scan"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// le buckets must be cumulative: the last finite bucket's count can
	// never exceed the +Inf count, and counts are non-decreasing.
	var prev uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `scaguard_stage_duration_seconds_bucket{stage="scan"`) {
			continue
		}
		n, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("buckets not cumulative at %q", line)
		}
		prev = n
	}
	if prev != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", prev)
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	c := NewCollector()
	c.Inc(ScanTargets)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	get := func(accept, query string) (string, string) {
		req, err := http.NewRequest("GET", srv.URL+"/"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.Header.Get("Content-Type"), b.String()
	}

	if ct, body := get("", ""); ct != "application/json" || !strings.Contains(body, `"counters"`) {
		t.Errorf("default: ct=%q body=%.60q", ct, body)
	}
	if ct, body := get("text/plain;version=0.0.4", ""); ct != PrometheusContentType ||
		!strings.Contains(body, "scaguard_scan_targets_total 1") {
		t.Errorf("accept text/plain: ct=%q body=%.60q", ct, body)
	}
	if ct, _ := get("application/openmetrics-text", ""); ct != PrometheusContentType {
		t.Errorf("accept openmetrics: ct=%q", ct)
	}
	if ct, body := get("", "?format=prometheus"); ct != PrometheusContentType ||
		!strings.Contains(body, "scaguard_scan_targets_total 1") {
		t.Errorf("format=prometheus: ct=%q body=%.60q", ct, body)
	}
	if ct, _ := get("text/plain", "?format=json"); ct != "application/json" {
		t.Errorf("format=json overrides Accept: ct=%q", ct)
	}
}
