package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil collector must absorb every call without panicking — that is
// the disabled fast path the hot code relies on.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Inc(ScanTargets)
	c.Add(ScanEntriesExact, 10)
	c.ObserveSince(StageScan, c.Now())
	c.ObserveSince(StageScan, time.Now())
	c.RegisterGauges("x", func() map[string]uint64 { return nil })
	if got := c.Counter(ScanTargets); got != 0 {
		t.Fatalf("nil collector counter = %d", got)
	}
	snap := c.Snapshot()
	if len(snap.Counters) != 0 && snap.Counters[ScanTargets.String()] != 0 {
		t.Fatalf("nil collector snapshot not empty: %+v", snap)
	}
	if !c.Now().IsZero() {
		t.Fatal("nil collector Now() should be the zero time")
	}
}

func TestCountersAndNames(t *testing.T) {
	c := NewCollector()
	c.Inc(ScanTargets)
	c.Add(ScanEntriesExact, 7)
	c.Add(ScanEntriesLowerBoundSkipped, 2)
	c.Inc(ScanEntriesAbandoned)
	if got := c.Counter(ScanEntriesExact); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	snap := c.Snapshot()
	if snap.Counters["scan_targets"] != 1 || snap.Counters["scan_entries_exact"] != 7 {
		t.Fatalf("snapshot counters wrong: %+v", snap.Counters)
	}
	// Every counter has a distinct non-default name.
	seen := map[string]bool{}
	for k := Counter(0); k < numCounters; k++ {
		n := k.String()
		if n == "counter_unknown" || seen[n] {
			t.Fatalf("bad or duplicate counter name %q", n)
		}
		seen[n] = true
	}
	for s := Stage(0); s < numStages; s++ {
		if s.String() == "stage_unknown" {
			t.Fatalf("stage %d has no name", s)
		}
	}
}

func TestDerivedRates(t *testing.T) {
	c := NewCollector()
	c.Add(ScanEntriesExact, 60)
	c.Add(ScanEntriesLowerBoundSkipped, 30)
	c.Add(ScanEntriesAbandoned, 10)
	c.RegisterGauges("distcache", func() map[string]uint64 {
		return map[string]uint64{"block_hits": 3, "block_misses": 1, "pair_hits": 9, "pair_misses": 1}
	})
	d := c.Snapshot().Derived
	if d.PruneRate != 0.4 || d.LowerBoundSkipRate != 0.3 || d.AbandonRate != 0.1 {
		t.Fatalf("derived scan rates wrong: %+v", d)
	}
	if d.CacheBlockHitRate != 0.75 || d.CachePairHitRate != 0.9 {
		t.Fatalf("derived cache rates wrong: %+v", d)
	}
}

// Cascade tier skips count as lower-bound skips in the derived rates:
// an entry pruned by the Kim or Keogh tier must raise prune_rate and
// lb_skip_rate exactly like a per-row skip.
func TestDerivedRatesCascadeTiers(t *testing.T) {
	c := NewCollector()
	c.Add(ScanEntriesExact, 50)
	c.Add(ScanEntriesKimSkipped, 20)
	c.Add(ScanEntriesKeoghSkipped, 5)
	c.Add(ScanEntriesLowerBoundSkipped, 5)
	c.Add(ScanEntriesAbandoned, 20)
	d := c.Snapshot().Derived
	if d.PruneRate != 0.5 || d.LowerBoundSkipRate != 0.3 || d.AbandonRate != 0.2 {
		t.Fatalf("derived cascade rates wrong: %+v", d)
	}
}

func TestHistogram(t *testing.T) {
	c := NewCollector()
	c.stages[StageScan].observe(500 * time.Nanosecond) // bucket 0 (<1µs)
	c.stages[StageScan].observe(3 * time.Microsecond)  // bucket 2 ([2,4)µs)
	c.stages[StageScan].observe(3 * time.Microsecond)
	c.stages[StageScan].observe(time.Hour) // clamped to the catch-all bucket
	st := c.Snapshot().Stages[StageScan.String()]
	if st.Count != 4 {
		t.Fatalf("count = %d, want 4", st.Count)
	}
	wantTotal := 500*time.Nanosecond + 6*time.Microsecond + time.Hour
	if st.Total != wantTotal {
		t.Fatalf("total = %v, want %v", st.Total, wantTotal)
	}
	if st.Min != 500*time.Nanosecond || st.Max != time.Hour {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	if st.Mean != wantTotal/4 {
		t.Fatalf("mean = %v", st.Mean)
	}
	var b0, b2, top uint64
	for _, b := range st.Buckets {
		switch b.UpperMicros {
		case 1:
			b0 = b.Count
		case 4:
			b2 = b.Count
		case 0:
			top = b.Count
		}
	}
	if b0 != 1 || b2 != 2 || top != 1 {
		t.Fatalf("buckets wrong: %+v", st.Buckets)
	}
}

func TestObserveSinceZeroStartRecordsNothing(t *testing.T) {
	c := NewCollector()
	c.ObserveSince(StageScan, time.Time{})
	if st := c.Snapshot().Stages[StageScan.String()]; st.Count != 0 {
		t.Fatalf("zero start recorded an observation: %+v", st)
	}
}

func TestHTTPHandlerServesLiveSnapshot(t *testing.T) {
	c := NewCollector()
	c.Add(ScanEntriesExact, 3)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	get := func() Snapshot {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		var snap Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if snap := get(); snap.Counters["scan_entries_exact"] != 3 {
		t.Fatalf("snapshot = %+v", snap.Counters)
	}
	c.Add(ScanEntriesExact, 2) // live: every request takes a fresh snapshot
	if snap := get(); snap.Counters["scan_entries_exact"] != 5 {
		t.Fatalf("snapshot not live: %+v", snap.Counters)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	c := NewCollector()
	addr, shutdown, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestReportMentionsKeyMetrics(t *testing.T) {
	c := NewCollector()
	c.Add(ScanEntriesExact, 6)
	c.Add(ScanEntriesLowerBoundSkipped, 4)
	c.stages[StageScan].observe(2 * time.Millisecond)
	c.RegisterGauges("distcache", func() map[string]uint64 {
		return map[string]uint64{"blocks": 10, "pairs": 20, "block_hits": 1, "block_misses": 1, "pair_hits": 1, "pair_misses": 3}
	})
	rep := c.Snapshot().Report()
	for _, want := range []string{"pruning:  40.0%", "distcache", "stage scan", "scan_entries_exact"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// Concurrent writers plus a snapshotting reader: counters must be
// monotone between successive snapshots and land on the exact total.
func TestConcurrentSnapshotsMonotone(t *testing.T) {
	c := NewCollector()
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := c.Snapshot().Counters[ScanEntriesExact.String()]
			if cur < last {
				snapErr = &nonMonotoneError{prev: last, cur: cur}
				return
			}
			last = cur
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc(ScanEntriesExact)
				c.stages[StageScan].observe(time.Microsecond)
			}
		}()
	}
	wgWait := make(chan struct{})
	go func() { wg.Wait(); close(wgWait) }()
	// Let writers finish, then stop the snapshotter.
	for {
		if c.Counter(ScanEntriesExact) == writers*perWriter {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-wgWait
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if got := c.Counter(ScanEntriesExact); got != writers*perWriter {
		t.Fatalf("final count %d, want %d", got, writers*perWriter)
	}
	if st := c.Snapshot().Stages[StageScan.String()]; st.Count != writers*perWriter {
		t.Fatalf("histogram count %d, want %d", st.Count, writers*perWriter)
	}
}

type nonMonotoneError struct{ prev, cur uint64 }

func (e *nonMonotoneError) Error() string {
	return "snapshot counter went backwards"
}
