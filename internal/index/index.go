// Package index implements the sub-linear metric repository index: a
// one-level cluster tree over repository entries, built from the
// pairwise-distance MST (reusing internal/graph's spanning-forest
// machinery, the same algorithm the paper's Algorithm 1 runs over basic
// blocks) with each cluster summarized by its medoid prototype and a
// radius. A scan scores the k prototypes first and visits clusters in
// ascending prototype-distance order; a cluster whose triangle-
// inequality estimate protoDist − radius already exceeds the running
// cutoff is a strong candidate for skipping, so most of a large
// repository is dismissed on O(1)-per-entry certificates instead of
// full DTW comparisons.
//
// The package is deliberately abstract: it never sees models or
// similarity options, only entry indices 0..n-1 and a DistFunc the
// caller provides (internal/scan supplies its memoized comparison
// kernel). That keeps the dependency direction index ← scan and makes
// the construction trivially property-testable against synthetic
// distance matrices.
//
// Soundness note (the full argument is in docs/INDEXING.md): the
// path-length-normalized DTW distance the scan engine uses is NOT a
// metric — the triangle inequality can fail by a constant factor — so
// protoDist − radius is a heuristic estimate, not a proof. Exact-mode
// scans therefore use the gate only to order work and choose
// certificate strategies; every entry actually skipped carries a sound
// per-entry lower-bound certificate from the cascade tiers. Only the
// explicit approximate mode (MaxClusters) trusts the gate alone.
package index

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// DistFunc returns the exact distance between repository entries i and
// j. It must be deterministic for the index to be reproducible; it may
// return +Inf (e.g. comparing an empty model against a non-empty one).
type DistFunc func(i, j int) float64

// Member is one clustered repository entry.
type Member struct {
	// Entry is the repository entry index (position in the model slice
	// the index was built over).
	Entry int
	// ProtoDist is the exact distance from the cluster's medoid to this
	// member, precomputed at build time for per-member visit ordering.
	ProtoDist float64
}

// Cluster is one MST component: a medoid prototype, the non-medoid
// members in ascending entry order, and the radius covering them.
type Cluster struct {
	// Medoid is the entry index of the cluster's prototype: the member
	// minimizing the sum of distances to every other member (lowest
	// entry index on ties).
	Medoid int
	// Radius is the maximum distance from the medoid to any member
	// (0 for singleton clusters; +Inf when a member is unreachable).
	Radius float64
	// Members lists the cluster's entries excluding the medoid itself.
	Members []Member
}

// Index is an immutable cluster index over repository entries 0..N-1.
// Build returns a fresh value; an Index is never mutated after
// construction and is safe to share across goroutines.
type Index struct {
	// N is the number of entries covered (every entry appears in
	// exactly one cluster, as medoid or member).
	N int
	// Clusters holds the partition in ascending-medoid order.
	Clusters []Cluster
	// BuildTime is the wall time the construction took, dominated by
	// the O(n²) pairwise distances.
	BuildTime time.Duration
}

// DefaultClusters is the cluster-count heuristic when the caller does
// not pick one: ~sqrt(n)/2. The classic sqrt(n) balance assumes a
// prototype comparison and a member dismissal cost the same, but here
// they do not — each prototype takes a (possibly early-abandoned) DTW
// while most members die on an O(1) Kim certificate — so the
// cost-balancing point sits well below sqrt(n). Halving it keeps the
// prototype pass from dominating exactly the tight-cutoff sweeps the
// index exists for (measured on the 500-variant stress corpus:
// sqrt(n)/2 scans ~2.5x faster than sqrt(n)).
func DefaultClusters(n int) int {
	if n <= 1 {
		return 1
	}
	k := int(math.Round(math.Sqrt(float64(n)) / 2))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Build constructs the index over n entries: all pairwise distances,
// the minimum spanning tree (internal/graph's maximum spanning forest
// over negated weights), the k−1 heaviest tree edges cut, and each
// resulting component summarized by medoid and radius. clusters <= 0
// selects DefaultClusters(n). The construction is deterministic for a
// deterministic dist.
//
// The only error path is the index.build failpoint (and it is the
// reason Build returns one): callers degrade to flat scanning on
// failure rather than failing classification.
func Build(n, clusters int, dist DistFunc) (*Index, error) {
	if err := faultinject.Fire(faultinject.IndexBuild, fmt.Sprintf("%d", n)); err != nil {
		return nil, fmt.Errorf("index: build over %d entries: %w", n, err)
	}
	start := time.Now()
	if n <= 0 {
		return &Index{BuildTime: time.Since(start)}, nil
	}
	k := clusters
	if k <= 0 {
		k = DefaultClusters(n)
	}
	if k > n {
		k = n
	}

	// Pairwise distances, computed once and reused for the MST, the
	// medoid election and the radii. O(n²/2) dist calls dominate the
	// build; scans amortize it (see docs/INDEXING.md for the math).
	d := make([]float64, n*n)
	at := func(i, j int) float64 { return d[i*n+j] }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			d[i*n+j], d[j*n+i] = v, v
		}
	}

	// Minimum spanning tree via the maximum spanning forest over
	// negated weights. The complete graph is connected, so the forest
	// is a single tree with n−1 edges.
	nodes := make([]uint64, n)
	for i := range nodes {
		nodes[i] = uint64(i)
	}
	edges := make([]graph.WEdge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.WEdge{From: uint64(i), To: uint64(j), Weight: -at(i, j)})
		}
	}
	mst := graph.MaximumSpanningForest(nodes, edges)

	// Cut the k−1 heaviest-distance tree edges (ties broken on
	// (From, To) so repeated builds cut identically), leaving k
	// components.
	sort.SliceStable(mst, func(a, b int) bool {
		if mst[a].Weight != mst[b].Weight {
			return mst[a].Weight < mst[b].Weight // most negative = largest distance first
		}
		if mst[a].From != mst[b].From {
			return mst[a].From < mst[b].From
		}
		return mst[a].To < mst[b].To
	})
	cut := k - 1
	if cut > len(mst) {
		cut = len(mst)
	}
	kept := mst[cut:]

	// Union-find over the kept edges yields the cluster membership.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range kept {
		a, b := find(int(e.From)), find(int(e.To))
		if a != b {
			if a > b {
				a, b = b, a
			}
			parent[b] = a // lower root wins: deterministic representatives
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}

	ix := &Index{N: n, Clusters: make([]Cluster, 0, len(groups))}
	for _, members := range groups {
		ix.Clusters = append(ix.Clusters, summarize(members, at))
	}
	sort.Slice(ix.Clusters, func(a, b int) bool { return ix.Clusters[a].Medoid < ix.Clusters[b].Medoid })
	ix.BuildTime = time.Since(start)
	return ix, nil
}

// summarize elects the medoid of one member set (ascending entry
// indices) and computes the radius and per-member prototype distances.
func summarize(members []int, at func(i, j int) float64) Cluster {
	sort.Ints(members)
	best, bestSum := members[0], math.Inf(1)
	for _, m := range members {
		sum := 0.0
		for _, o := range members {
			if o != m {
				sum += at(m, o)
			}
		}
		// Strict less keeps the lowest entry index on ties (members are
		// ascending). An all-+Inf row still elects the first member.
		if sum < bestSum {
			best, bestSum = m, sum
		}
	}
	c := Cluster{Medoid: best, Members: make([]Member, 0, len(members)-1)}
	for _, m := range members {
		if m == best {
			continue
		}
		pd := at(best, m)
		if pd > c.Radius {
			c.Radius = pd
		}
		c.Members = append(c.Members, Member{Entry: m, ProtoDist: pd})
	}
	return c
}

// MaxRadius returns the largest cluster radius (0 for an empty index);
// a loose global indicator of how tight the clustering is.
func (ix *Index) MaxRadius() float64 {
	r := 0.0
	for _, c := range ix.Clusters {
		if c.Radius > r {
			r = c.Radius
		}
	}
	return r
}

// Gauges reports the index shape for the telemetry "index" gauge group:
// cluster and entry counts, the largest radius in micro-units (radius ×
// 10⁶ truncated; +Inf saturates) and the build time in microseconds.
func (ix *Index) Gauges() map[string]uint64 {
	r := ix.MaxRadius()
	var rum uint64
	switch {
	case math.IsInf(r, 1):
		rum = math.MaxUint64
	case r > 0:
		rum = uint64(r * 1e6)
	}
	return map[string]uint64{
		"clusters":      uint64(len(ix.Clusters)),
		"entries":       uint64(ix.N),
		"max_radius_um": rum,
		"build_us":      uint64(ix.BuildTime.Microseconds()),
	}
}
