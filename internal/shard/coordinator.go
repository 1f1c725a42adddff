package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/telemetry"
)

// Config tunes a Coordinator.
type Config struct {
	// ShardTimeout, when positive, bounds each shard's share of one
	// scan: a shard that exceeds it fails with DeadlineExceeded and the
	// scan degrades to partial results instead of waiting. It nests
	// inside the caller's context (the earlier deadline wins). With
	// replica groups it bounds the whole group — attempts, failovers
	// and all; AttemptTimeout bounds each individual replica attempt.
	ShardTimeout time.Duration
	// AttemptTimeout, when positive, bounds each replica attempt inside
	// a replica group, so a slow replica fails over instead of eating
	// the whole ShardTimeout. Ignored by plain (ungrouped) shards.
	AttemptTimeout time.Duration
	// Breaker tunes the per-replica circuit breakers of replica groups
	// (zero value = breaker defaults; Threshold -1 disables breaking).
	// Ignored by plain shards.
	Breaker breaker.Settings
	// ProbeInterval, when positive, starts a background health prober
	// (internal/breaker) over every remote replica: quarantined
	// backends are re-probed via /healthz and re-admitted within one
	// interval of recovering. 0 leaves re-admission to the breakers'
	// own half-open scan probes. The prober goroutine lives until
	// Close.
	ProbeInterval time.Duration
	// Telemetry optionally records the scatter–gather counters
	// (shard_scans, shard_scan_failures, shard_degraded_scans,
	// shard_failovers, the breaker transition counters, the shard_scan
	// latency histogram). nil disables instrumentation.
	Telemetry *telemetry.Collector
}

// Coordinator scatters targets across shards and gathers the per-shard
// matches back into one globally-indexed result. It is safe for
// concurrent use; shards are never mutated after construction.
type Coordinator struct {
	shards []Shard
	index  [][]int // shard → local index → global index
	total  int
	cfg    Config
	stats  []coordStats
	prober *breaker.Prober // nil unless ProbeInterval wired a prober
}

// coordStats is the per-shard counter block behind Stats.
type coordStats struct {
	scans    atomic.Uint64
	failures atomic.Uint64
	totalNS  atomic.Uint64
}

// NewCoordinator assembles a coordinator over shards, where index[i]
// maps shard i's local entry positions to global repository indices
// (Router.Partition's output). Every global index must be covered
// exactly once and each shard's Len must match its index slice.
func NewCoordinator(shards []Shard, index [][]int, cfg Config) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: coordinator needs at least one shard")
	}
	if len(shards) != len(index) {
		return nil, fmt.Errorf("shard: %d shards with %d index slices", len(shards), len(index))
	}
	total := 0
	for i, s := range shards {
		if s.Len() != len(index[i]) {
			return nil, fmt.Errorf("shard: shard %s holds %d entries, index maps %d — partition mismatch (same repository and shard count on both sides?)",
				s.Name(), s.Len(), len(index[i]))
		}
		total += len(index[i])
	}
	seen := make([]bool, total)
	for i := range index {
		for _, g := range index[i] {
			if g < 0 || g >= total || seen[g] {
				return nil, fmt.Errorf("shard: global index %d out of range or duplicated in shard %s", g, shards[i].Name())
			}
			seen[g] = true
		}
	}
	return &Coordinator{shards: shards, index: index, total: total, cfg: cfg, stats: make([]coordStats, len(shards))}, nil
}

// Len returns the number of repository entries across all shards.
func (c *Coordinator) Len() int { return c.total }

// Shards returns how many shards the coordinator scatters over.
func (c *Coordinator) Shards() int { return len(c.shards) }

// ScanCtx scatters one target to every shard concurrently and gathers
// the matches into ascending global-index order. All shards share one
// pruning cutoff, so in pruned configurations the running global best
// tightens every shard's early abandoning as it improves (remote shards
// receive it as broadcast pushes).
//
// When every shard succeeds the result covers every repository entry —
// in exact mode bit-identically to a single engine's Scan. When some
// shards fail (timeout, dead remote, injected fault), the surviving
// shards' matches are still returned, in order, alongside a
// *PartialError naming the failures; a context error on the
// coordinator's own ctx is returned as-is with the matches discarded.
func (c *Coordinator) ScanCtx(ctx context.Context, bbs *model.CSTBBS) ([]scan.Match, error) {
	cut := scan.NewCutoff()
	tel := c.cfg.Telemetry
	perShard := make([][]scan.Match, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	wg.Add(len(c.shards))
	for i, s := range c.shards {
		go func(i int, s Shard) {
			defer wg.Done()
			tel.Inc(telemetry.ShardScans)
			c.stats[i].scans.Add(1)
			start := tel.Now()
			perShard[i], errs[i] = c.scanShard(ctx, s, bbs, cut)
			tel.ObserveSince(telemetry.StageShardScan, start)
			if !start.IsZero() {
				c.stats[i].totalNS.Add(uint64(time.Since(start).Nanoseconds()))
			}
			if errs[i] != nil {
				tel.Inc(telemetry.ShardScanFailures)
				c.stats[i].failures.Add(1)
			}
		}(i, s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.gather(perShard, errs)
}

// scanShard runs one shard's share of a scan under the per-shard
// timeout and the shard.scan failpoint.
func (c *Coordinator) scanShard(ctx context.Context, s Shard, bbs *model.CSTBBS, cut *scan.Cutoff) ([]scan.Match, error) {
	if err := faultinject.Fire(faultinject.ShardScan, s.Name()); err != nil {
		return nil, err
	}
	if c.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ShardTimeout)
		defer cancel()
	}
	ms, err := s.Scan(ctx, bbs, cut)
	if err != nil {
		return nil, err
	}
	if len(ms) != s.Len() {
		return nil, fmt.Errorf("shard %s returned %d matches for %d entries", s.Name(), len(ms), s.Len())
	}
	return ms, nil
}

// gather remaps per-shard matches to global indices, sorts them into
// global order and converts shard failures into a *PartialError.
func (c *Coordinator) gather(perShard [][]scan.Match, errs []error) ([]scan.Match, error) {
	out := make([]scan.Match, 0, c.total)
	var failed []*ShardError
	for i := range c.shards {
		if errs[i] != nil {
			failed = append(failed, &ShardError{Shard: c.shards[i].Name(), Entries: c.shards[i].Len(), Err: errs[i]})
			continue
		}
		for local, m := range perShard[i] {
			m.Index = c.index[i][local]
			out = append(out, m)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	if len(failed) > 0 {
		c.cfg.Telemetry.Inc(telemetry.ShardDegradedScans)
		missing := 0
		for _, f := range failed {
			missing += f.Entries
		}
		return out, &PartialError{Failed: failed, Missing: missing}
	}
	return out, nil
}

// ShardStats is one shard's cumulative scatter–gather counters.
type ShardStats struct {
	Name     string
	Entries  int
	Scans    uint64
	Failures uint64
	// TotalLatency is the summed wall time of this shard's scans
	// (recorded only when telemetry is attached, like the histogram).
	TotalLatency time.Duration
}

// Stats reports per-shard counters for diagnostics and gauges.
func (c *Coordinator) Stats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i, s := range c.shards {
		out[i] = ShardStats{
			Name:         s.Name(),
			Entries:      s.Len(),
			Scans:        c.stats[i].scans.Load(),
			Failures:     c.stats[i].failures.Load(),
			TotalLatency: time.Duration(c.stats[i].totalNS.Load()),
		}
	}
	return out
}

// TelemetryGauges adapts Stats to a telemetry gauge source; register it
// under the "shards" name so snapshots carry per-shard scan/failure
// counts alongside the aggregate counters.
func (c *Coordinator) TelemetryGauges() map[string]uint64 {
	out := make(map[string]uint64, 4*len(c.shards))
	for i, st := range c.Stats() {
		prefix := fmt.Sprintf("shard%d_", i)
		out[prefix+"entries"] = uint64(st.Entries)
		out[prefix+"scans"] = st.Scans
		out[prefix+"failures"] = st.Failures
		out[prefix+"latency_ms"] = uint64(st.TotalLatency.Milliseconds())
	}
	return out
}

// breakers walks the fleet and returns every replica breaker, keyed by
// backend name. Empty for fleets without replica groups.
func (c *Coordinator) breakers() map[string]*breaker.Breaker {
	out := make(map[string]*breaker.Breaker)
	for _, s := range c.shards {
		g, ok := s.(*ReplicaGroup)
		if !ok {
			continue
		}
		for _, b := range g.Breakers() {
			out[b.Name()] = b
		}
	}
	return out
}

// BreakerStates reports each replica backend's current breaker state,
// keyed by backend name (the replica address for remote fleets). Empty
// when the fleet has no replica groups.
func (c *Coordinator) BreakerStates() map[string]breaker.State {
	brks := c.breakers()
	out := make(map[string]breaker.State, len(brks))
	for name, b := range brks {
		out[name] = b.State()
	}
	return out
}

// BreakerGauges adapts the per-backend breaker state to a telemetry
// gauge source; register it under the "breakers" name. Each backend
// contributes <name>_state (0 closed, 1 open, 2 half-open) and
// <name>_opens (cumulative trips).
func (c *Coordinator) BreakerGauges() map[string]uint64 {
	brks := c.breakers()
	out := make(map[string]uint64, 2*len(brks))
	for name, b := range brks {
		out[name+"_state"] = uint64(b.State())
		out[name+"_opens"] = b.Opens()
	}
	return out
}

// Close releases the coordinator's background resources: it stops the
// health prober started by Config.ProbeInterval and drops the pooled
// keep-alive connections of the default HTTP client every remote shard
// uses (sockets and their transport goroutines would otherwise linger
// until the transport's idle timeout). Idempotent, nil-safe and safe on
// a coordinator that never started a prober; scans already in flight
// are unaffected (breakers keep working, they just lose background
// re-admission).
func (c *Coordinator) Close() {
	if c == nil {
		return
	}
	c.prober.Stop()
	http.DefaultClient.CloseIdleConnections()
}
