package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// BucketCount is one non-empty histogram bucket: Count observations
// with duration < UpperMicros microseconds (0 marks the catch-all top
// bucket).
type BucketCount struct {
	UpperMicros uint64 `json:"upper_us"`
	Count       uint64 `json:"count"`
}

// StageStats is the exported view of one stage histogram.
type StageStats struct {
	Count   uint64        `json:"count"`
	Total   time.Duration `json:"total_ns"`
	Min     time.Duration `json:"min_ns"`
	Max     time.Duration `json:"max_ns"`
	Mean    time.Duration `json:"mean_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Derived holds the ratios deployments actually watch, precomputed so
// every exporter (report, JSON, expvar) agrees on the arithmetic.
// Rates are in [0,1]; a rate whose denominator is zero is 0.
type Derived struct {
	// PruneRate is the fraction of entry comparisons resolved without a
	// full DTW (lower-bound skip or row-wise abandon).
	PruneRate float64 `json:"prune_rate"`
	// LowerBoundSkipRate and AbandonRate split PruneRate by mechanism.
	LowerBoundSkipRate float64 `json:"lb_skip_rate"`
	AbandonRate        float64 `json:"abandon_rate"`
	// CacheBlockHitRate / CachePairHitRate are DistCache intern and
	// pair-memo hit rates (present only when a distcache gauge source
	// is registered).
	CacheBlockHitRate float64 `json:"cache_block_hit_rate"`
	CachePairHitRate  float64 `json:"cache_pair_hit_rate"`
	// IndexSkipRate is the fraction of cluster decisions in indexed
	// scans that skipped the cluster wholesale (skipped over
	// skipped+descended); 0 when no indexed scan ran.
	IndexSkipRate float64 `json:"index_skip_rate"`
}

// Snapshot is a point-in-time view of a collector, ready for JSON
// encoding. Individual values are read atomically; the snapshot as a
// whole is not a cross-counter transaction (concurrent scans may land
// between reads), but every counter is monotone, so successive
// snapshots are componentwise non-decreasing.
type Snapshot struct {
	Counters map[string]uint64            `json:"counters"`
	Stages   map[string]StageStats        `json:"stages"`
	Gauges   map[string]map[string]uint64 `json:"gauges,omitempty"`
	Derived  Derived                      `json:"derived"`
}

// Snapshot reads the collector. Safe on a nil collector, which yields
// an empty snapshot.
func (c *Collector) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: make(map[string]uint64, int(numCounters)),
		Stages:   make(map[string]StageStats, int(numStages)),
	}
	if c == nil {
		return snap
	}
	for k := Counter(0); k < numCounters; k++ {
		snap.Counters[k.String()] = c.counters[k].Load()
	}
	for s := Stage(0); s < numStages; s++ {
		h := &c.stages[s]
		st := StageStats{
			Count: h.count.Load(),
			Total: time.Duration(h.sumNS.Load()),
			Min:   time.Duration(h.minNS.Load()),
			Max:   time.Duration(h.maxNS.Load()),
		}
		if st.Count > 0 {
			st.Mean = st.Total / time.Duration(st.Count)
		}
		for b := 0; b < histBuckets; b++ {
			n := h.buckets[b].Load()
			if n == 0 {
				continue
			}
			upper := uint64(0) // catch-all
			if b < histBuckets-1 {
				upper = uint64(1) << b
			}
			st.Buckets = append(st.Buckets, BucketCount{UpperMicros: upper, Count: n})
		}
		snap.Stages[s.String()] = st
	}
	c.mu.Lock()
	for name, fn := range c.gauges {
		if snap.Gauges == nil {
			snap.Gauges = make(map[string]map[string]uint64, len(c.gauges))
		}
		snap.Gauges[name] = fn()
	}
	c.mu.Unlock()
	snap.Derived = derive(snap)
	return snap
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// boundSkips sums every lower-bound-based skip over the cascade's three
// tiers. All three are "entry pruned before DTW", so the derived rates
// treat them as one bucket regardless of which tier fired.
func boundSkips(s Snapshot) uint64 {
	return s.Counters[ScanEntriesLowerBoundSkipped.String()] +
		s.Counters[ScanEntriesKimSkipped.String()] +
		s.Counters[ScanEntriesKeoghSkipped.String()]
}

func derive(s Snapshot) Derived {
	exact := s.Counters[ScanEntriesExact.String()]
	skipped := boundSkips(s)
	abandoned := s.Counters[ScanEntriesAbandoned.String()]
	total := exact + skipped + abandoned
	d := Derived{
		PruneRate:          ratio(skipped+abandoned, total),
		LowerBoundSkipRate: ratio(skipped, total),
		AbandonRate:        ratio(abandoned, total),
	}
	if g, ok := s.Gauges["distcache"]; ok {
		d.CacheBlockHitRate = ratio(g["block_hits"], g["block_hits"]+g["block_misses"])
		d.CachePairHitRate = ratio(g["pair_hits"], g["pair_hits"]+g["pair_misses"])
	}
	idxSkip := s.Counters[IndexClustersSkipped.String()]
	idxDesc := s.Counters[IndexClustersDescended.String()]
	d.IndexSkipRate = ratio(idxSkip, idxSkip+idxDesc)
	return d
}

// WriteReport renders the snapshot as the human-readable text behind
// `scaguard classify -stats`: counters, derived rates and per-stage
// latencies, skipping sections with no recorded activity.
func (s Snapshot) WriteReport(w io.Writer) {
	fmt.Fprintln(w, "telemetry:")
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if s.Counters[n] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-28s %d\n", n, s.Counters[n])
	}
	exact := s.Counters[ScanEntriesExact.String()]
	skipped := boundSkips(s)
	abandoned := s.Counters[ScanEntriesAbandoned.String()]
	if total := exact + skipped + abandoned; total > 0 {
		fmt.Fprintf(w, "  pruning:  %.1f%% of %d comparisons (%.1f%% lower-bound skips, %.1f%% DTW abandons)\n",
			s.Derived.PruneRate*100, total,
			s.Derived.LowerBoundSkipRate*100, s.Derived.AbandonRate*100)
	}
	if g, ok := s.Gauges["distcache"]; ok {
		fmt.Fprintf(w, "  distcache: %d blocks %d pairs, block hit rate %.1f%%, pair hit rate %.1f%%\n",
			g["blocks"], g["pairs"],
			s.Derived.CacheBlockHitRate*100, s.Derived.CachePairHitRate*100)
	}
	if skip, desc := s.Counters[IndexClustersSkipped.String()], s.Counters[IndexClustersDescended.String()]; skip+desc > 0 {
		fmt.Fprintf(w, "  index:    %.1f%% of %d cluster decisions skipped wholesale (%d rebuilds)\n",
			s.Derived.IndexSkipRate*100, skip+desc, s.Counters[IndexRebuilds.String()])
	}
	if g, ok := s.Gauges["index"]; ok {
		fmt.Fprintf(w, "  index:    %d clusters over %d entries, max radius %.3f, built in %s\n",
			g["clusters"], g["entries"], float64(g["max_radius_um"])/1e6,
			time.Duration(g["build_us"])*time.Microsecond)
	}
	stageNames := make([]string, 0, len(s.Stages))
	for n := range s.Stages {
		stageNames = append(stageNames, n)
	}
	sort.Strings(stageNames)
	for _, n := range stageNames {
		st := s.Stages[n]
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  stage %-16s n=%-4d total=%-12s mean=%-12s min=%-12s max=%s\n",
			n, st.Count, st.Total, st.Mean, st.Min, st.Max)
	}
}

// Report returns WriteReport's output as a string.
func (s Snapshot) Report() string {
	var b strings.Builder
	s.WriteReport(&b)
	return b.String()
}
