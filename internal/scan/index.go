package scan

// The index-guided scan path: scores cluster prototypes first, visits
// clusters in ascending prototype-distance order, and dismisses the
// members of clusters that cannot beat the running cutoff on cheap
// per-entry certificates. Exact mode (the default) is bit-identical to
// the flat pruned engine on the best match and verdict: the triangle-
// inequality cluster gate only *orders* work and picks certificate
// strategies — every skipped entry carries a sound lower-bound
// certificate from the cascade tiers (Kim → Keogh → per-row → DTW
// abandon), because the path-length-normalized DTW distance is not a
// metric and the gate alone would not be a proof. Only the explicit
// IndexMaxClusters mode trusts the gate for skips, trading recall.
// The full construction and soundness writeup is docs/INDEXING.md.

import (
	"math"
	"sort"

	"repro/internal/dtw"
	"repro/internal/index"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

// indexed reports whether scans run the index-guided path.
func (e *Engine) indexed() bool { return e.cfg.Prune && e.idx != nil }

// entryDist adapts the engine's memoized comparison kernel to the
// index's entry-pair DistFunc: entry i is viewed as a target (its
// profile, interned ids and flattened form already exist) and compared
// exactly against entry j.
func (e *Engine) entryDist(s *scratch) index.DistFunc {
	var t target
	return func(i, j int) float64 {
		t = target{bbs: e.models[i], prof: e.profs[i], ids: e.ids[i], flat: e.flats[i]}
		d, _ := e.compare(&t, j, math.Inf(1), s)
		return d
	}
}

// buildIndex constructs the repository index at engine build time. A
// failed build — only the index.build failpoint fails it — degrades to
// flat scanning: the engine keeps working, it just is not sub-linear.
func (e *Engine) buildIndex() *index.Index {
	// The build scratch comes from (and returns to) the engine pool on
	// purpose: the O(n²) distance pass fills the worker-local pair memo
	// with exactly the entry-pair cells later scans revisit.
	s := e.getScratch()
	defer e.putScratch(s)
	ix, err := index.Build(len(e.models), e.cfg.IndexClusters, e.entryDist(s))
	if err != nil {
		return nil
	}
	e.cfg.Telemetry.Inc(telemetry.IndexRebuilds)
	return ix
}

// scanIndexed scores one target against the whole repository through
// the index, filling out (len == number of entries) in place. It runs
// as a single work item: phase 1 exact-scores every cluster prototype
// (cheapest Kim bound first, so the shared cutoff tightens early),
// phase 2 walks clusters in ascending prototype distance, skipping or
// descending per cluster.
func (e *Engine) scanIndexed(t *target, out []Match, cut *Cutoff, s *scratch) {
	tel := e.cfg.Telemetry
	cs := e.idx.Clusters
	k := len(cs)
	if k == 0 {
		return
	}
	s.sizeIndex(k)

	// Phase 1: prototype scores, cheapest O(1) Kim bound first so the
	// shared cutoff tightens after the first medoid and later medoids can
	// abandon early. An abandoned prototype comparison still returns a
	// sound lower bound on its true distance (the abandon row-minimum
	// over the worst-case path length), so the phase-2 gate built from it
	// only gets more conservative — it can under-skip, never over-skip.
	for c := range cs {
		s.protoOrd[c] = c
		s.protoKim[c] = similarity.LowerBoundKim(t.prof, e.profs[cs[c].Medoid], e.sim)
	}
	sort.SliceStable(s.protoOrd, func(a, b int) bool { return s.protoKim[s.protoOrd[a]] < s.protoKim[s.protoOrd[b]] })
	for _, c := range s.protoOrd {
		m := cs[c].Medoid
		d, abandoned := e.compare(t, m, pruneCutoff(cut.Best()), s)
		s.protoDist[c] = d
		if abandoned {
			tel.Inc(telemetry.ScanEntriesAbandoned)
			out[m] = Match{Index: m, Score: dtw.Similarity(d), Pruned: true}
			continue
		}
		cut.Update(d)
		tel.Inc(telemetry.ScanEntriesExact)
		out[m] = Match{Index: m, Score: dtw.Similarity(d)}
	}

	// Phase 2: clusters in ascending prototype-distance order, ties on
	// cluster position for determinism.
	for c := range cs {
		s.protoOrd[c] = c
	}
	sort.SliceStable(s.protoOrd, func(a, b int) bool { return s.protoDist[s.protoOrd[a]] < s.protoDist[s.protoOrd[b]] })
	descended := 0
	for _, c := range s.protoOrd {
		cl := &cs[c]
		if len(cl.Members) == 0 {
			continue // singleton: the medoid is already scored exactly
		}
		cutoff := pruneCutoff(cut.Best())
		// The triangle-inequality estimate: no member can (if the
		// distance were a metric) be closer than protoDist − radius.
		// Shrunk by the shared lbSafety margin on the conservative side.
		gate := s.protoDist[c] - cl.Radius
		if gate > 0 {
			gate *= similarity.LBSafety
		}
		skip := gate > cutoff
		switch {
		case skip:
			tel.Inc(telemetry.IndexClustersSkipped)
		case e.cfg.IndexMaxClusters > 0 && descended >= e.cfg.IndexMaxClusters:
			// Approximate mode: the cluster budget is spent. Trust the
			// gate alone: every member reports a pruned estimate (the
			// estimate is clamped to the cutoff so the exact winner's
			// score still ranks first) and no certificates are checked.
			// This is the only path that can miss the true best match.
			tel.Inc(telemetry.IndexClustersSkipped)
			est := gate
			if est < cutoff {
				est = cutoff
			}
			sc := dtw.Similarity(est)
			for _, mb := range cl.Members {
				out[mb.Entry] = Match{Index: mb.Entry, Score: sc, Pruned: true}
			}
			continue
		default:
			tel.Inc(telemetry.IndexClustersDescended)
			descended++
		}
		// Member visit order: for descended clusters, nearest first by
		// the |protoDist(target) − protoDist(member)| estimate, so the
		// likely winner tightens the cutoff before its siblings are
		// examined. For gate-skipped clusters order cannot matter — all
		// members are expected to certificate out — so skip the sort.
		mo := s.memOrd[:0]
		for mi := range cl.Members {
			mo = append(mo, mi)
		}
		if !skip {
			pd := s.protoDist[c]
			sort.SliceStable(mo, func(a, b int) bool {
				ea := math.Abs(pd - cl.Members[mo[a]].ProtoDist)
				eb := math.Abs(pd - cl.Members[mo[b]].ProtoDist)
				return ea < eb
			})
		}
		for _, mi := range mo {
			ei := cl.Members[mi].Entry
			out[ei] = e.scoreOneIndexed(t, ei, cut, s)
		}
		s.memOrd = mo[:0]
	}
}

// scoreOneIndexed scores one member entry through the lazily evaluated
// certificate ladder: the O(1) Kim bound, the O(n+m) Keogh envelope,
// the exact per-row bound (behind the same cutoff-proximity gate the
// cascade uses), then the early-abandoning DTW. Identical soundness to
// the flat pruned scoreOne — every tier is a true lower bound, so the
// best match stays exact — but the bounds are computed on demand
// instead of for the whole repository upfront, which is where the
// indexed scan's sub-linearity comes from.
func (e *Engine) scoreOneIndexed(t *target, ei int, cut *Cutoff, s *scratch) Match {
	tel := e.cfg.Telemetry
	cutoff := pruneCutoff(cut.Best())
	bound := similarity.LowerBoundKim(t.prof, e.profs[ei], e.sim)
	if bound > cutoff {
		tel.Inc(telemetry.ScanEntriesKimSkipped)
		return Match{Index: ei, Score: dtw.Similarity(bound), Pruned: true}
	}
	if b := similarity.LowerBoundKeogh(t.prof, e.profs[ei], e.sim, &s.keo); b > bound {
		bound = b
	}
	if bound > cutoff {
		tel.Inc(telemetry.ScanEntriesKeoghSkipped)
		return Match{Index: ei, Score: dtw.Similarity(bound), Pruned: true}
	}
	if bound > cutoff*cascadeEscalateFrac {
		if b := similarity.LowerBound(t.prof, e.profs[ei], e.sim); b > bound {
			bound = b
		}
		if bound > cutoff {
			tel.Inc(telemetry.ScanEntriesLowerBoundSkipped)
			return Match{Index: ei, Score: dtw.Similarity(bound), Pruned: true}
		}
	}
	d, abandoned := e.compare(t, ei, cutoff, s)
	if abandoned {
		tel.Inc(telemetry.ScanEntriesAbandoned)
		return Match{Index: ei, Score: dtw.Similarity(d), Pruned: true}
	}
	cut.Update(d)
	tel.Inc(telemetry.ScanEntriesExact)
	return Match{Index: ei, Score: dtw.Similarity(d)}
}
