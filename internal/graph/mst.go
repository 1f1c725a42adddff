package graph

import "slices"

// WEdge is a weighted, labeled edge of the path graph G' built by
// Algorithm 1: an edge between two attack-relevant basic blocks whose
// label is the underlying CFG path and whose weight is the path's attack
// correlation value V_p.
type WEdge struct {
	From, To uint64
	Weight   float64
	// Path is the underlying CFG path, including both endpoints.
	Path []uint64
}

// MaximumSpanningForest runs Prim's algorithm over the undirected view of
// the weighted edges and returns, for every connected component, the set
// of chosen edges. Together the returned edges form a maximum spanning
// forest: within each component the total weight is maximal.
//
// When several parallel edges connect the same pair of nodes the heaviest
// is considered first; ties break deterministically on (From, To) order
// and then on shorter path, so repeated runs pick identical trees.
func MaximumSpanningForest(nodes []uint64, edges []WEdge) []WEdge {
	if len(nodes) == 0 {
		return nil
	}
	// Dense node indices are positions in the sorted, deduplicated node
	// list, which is also the deterministic root order.
	ids := slices.Clone(nodes)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	n := len(ids)
	index := func(id uint64) int32 {
		if i, ok := slices.BinarySearch(ids, id); ok {
			return int32(i)
		}
		return -1
	}

	// ends[2k], ends[2k+1] are edge k's dense endpoints; edges outside the
	// node set and self loops (which never enter a spanning tree) are
	// dropped by marking them -1.
	ints := make([]int32, 2*len(edges)+n+1)
	ends, off := ints[:2*len(edges)], ints[2*len(edges):]
	valid := 0
	for k := range edges {
		f, t := index(edges[k].From), index(edges[k].To)
		if f < 0 || t < 0 || f == t {
			f, t = -1, -1
		} else {
			off[f+1]++
			off[t+1]++
			valid++
		}
		ends[2*k], ends[2*k+1] = f, t
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	// adj[off[u]:off[u+1]] lists the candidate edges touching u, in input
	// order, then best first. frontier shares the allocation.
	buf := make([]int32, 4*valid)
	adj, frontier := buf[:2*valid], buf[2*valid:2*valid]
	fill := slices.Clone(off[:n])
	for k := range edges {
		if f := ends[2*k]; f >= 0 {
			t := ends[2*k+1]
			adj[fill[f]] = int32(k)
			fill[f]++
			adj[fill[t]] = int32(k)
			fill[t]++
		}
	}
	// Deterministic candidate ordering.
	better := func(a, b *WEdge) bool {
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return len(a.Path) < len(b.Path)
	}
	byBetter := func(a, b int32) int {
		switch {
		case better(&edges[a], &edges[b]):
			return -1
		case better(&edges[b], &edges[a]):
			return 1
		}
		return 0
	}
	for u := 0; u < n; u++ {
		slices.SortFunc(adj[off[u]:off[u+1]], byBetter)
	}

	inTree := make([]bool, n)
	crosses := func(k int32) bool { return inTree[ends[2*k]] != inTree[ends[2*k+1]] }
	chosen := make([]WEdge, 0, n-1)
	for root := range ids {
		if inTree[root] {
			continue
		}
		inTree[root] = true
		// frontier: candidate edges with exactly one endpoint in the tree.
		frontier = append(frontier[:0], adj[off[root]:off[root+1]]...)
		for len(frontier) > 0 {
			// Pick the best frontier edge that still crosses the cut.
			bestIdx := -1
			for i, k := range frontier {
				if !crosses(k) {
					continue // both in or both out: not usable now
				}
				if bestIdx < 0 || better(&edges[k], &edges[frontier[bestIdx]]) {
					bestIdx = i
				}
			}
			if bestIdx < 0 {
				break
			}
			k := frontier[bestIdx]
			frontier = append(frontier[:bestIdx], frontier[bestIdx+1:]...)
			newNode := ends[2*k+1]
			if inTree[newNode] {
				newNode = ends[2*k]
			}
			inTree[newNode] = true
			chosen = append(chosen, edges[k])
			frontier = append(frontier, adj[off[newNode]:off[newNode+1]]...)
			// Drop edges fully inside the tree to keep the frontier small.
			kept := frontier[:0]
			for _, f := range frontier {
				if crosses(f) {
					kept = append(kept, f)
				}
			}
			frontier = kept
		}
	}
	slices.SortFunc(chosen, func(a, b WEdge) int {
		return compareEdges(Edge{a.From, a.To}, Edge{b.From, b.To})
	})
	return chosen
}

// TotalWeight sums edge weights; a convenience for tests and ablations.
func TotalWeight(edges []WEdge) float64 {
	t := 0.0
	for _, e := range edges {
		t += e.Weight
	}
	return t
}
