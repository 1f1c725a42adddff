package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// PathGraph bounds paths by their node count, endpoints included: on
// the chain 1→2→3 the only path has three nodes.
func TestSimplePathsMaxLenCountsNodes(t *testing.T) {
	g := New(nil, []Edge{{1, 2}, {2, 3}})
	if got := g.PathGraph(1, []uint64{1, 3}, 0, 2, nil); len(got) != 0 {
		t.Errorf("maxLen=2: paths %v, want none (the only path has 3 nodes)", got)
	}
	if got := pathsBetween(g.PathGraph(1, []uint64{1, 3}, 0, 3, nil), 1, 3); !reflect.DeepEqual(got, [][]uint64{{1, 2, 3}}) {
		t.Errorf("maxLen=3: paths %v, want [[1 2 3]]", got)
	}
	if got := pathsBetween(g.PathGraph(1, []uint64{1, 2}, 0, 2, nil), 1, 2); !reflect.DeepEqual(got, [][]uint64{{1, 2}}) {
		t.Errorf("maxLen=2: direct edge paths %v, want [[1 2]]", got)
	}
}

// refSimplePaths is the map-based recursive enumeration PathGraph must
// match path for path, kept as the reference (with paths bounded to
// maxLen nodes). It walks every prefix, reachable destination or not.
func refSimplePaths(g *Digraph, src, dst uint64, excluded map[uint64]bool, maxPaths, maxLen int) [][]uint64 {
	var out [][]uint64
	if !hasNode(g, src) || !hasNode(g, dst) {
		return out
	}
	onPath := map[uint64]bool{src: true}
	path := []uint64{src}
	var walk func(u uint64) bool
	walk = func(u uint64) bool {
		for _, v := range g.Succs(u) {
			if v == dst {
				if (u != src || v != src) && (maxLen == 0 || len(path)+1 <= maxLen) {
					out = append(out, append(append([]uint64(nil), path...), v))
					if maxPaths > 0 && len(out) >= maxPaths {
						return false
					}
				}
				continue
			}
			if onPath[v] || excluded[v] {
				continue
			}
			onPath[v] = true
			path = append(path, v)
			ok := walk(v)
			path = path[:len(path)-1]
			delete(onPath, v)
			if !ok {
				return false
			}
		}
		return true
	}
	walk(src)
	return out
}

// refBackEdges is the map-based DFS classification PathGraph's per-edge
// back marks must match: a DFS from root, then from every unvisited
// node in ascending order.
func refBackEdges(g *Digraph, root uint64) []Edge {
	color := map[uint64]int{}
	var back []Edge
	var dfs func(u uint64)
	dfs = func(u uint64) {
		color[u] = 1
		for _, v := range g.Succs(u) {
			switch color[v] {
			case 0:
				dfs(v)
			case 1:
				back = append(back, Edge{u, v})
			}
		}
		color[u] = 2
	}
	if hasNode(g, root) {
		dfs(root)
	}
	for _, n := range g.Nodes() {
		if color[n] == 0 {
			dfs(n)
		}
	}
	sort.Slice(back, func(i, j int) bool {
		if back[i].From != back[j].From {
			return back[i].From < back[j].From
		}
		return back[i].To < back[j].To
	})
	return back
}

// refRemoveBackEdges rebuilds g without its refBackEdges, every
// successor list in its original order.
func refRemoveBackEdges(g *Digraph, root uint64) *Digraph {
	back := refBackEdges(g, root)
	var edges []Edge
	for _, u := range g.Nodes() {
		for _, v := range g.Succs(u) {
			if !slices.Contains(back, Edge{u, v}) {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return New(g.Nodes(), edges)
}

// isAcyclic reports whether g has no directed cycle (Kahn's algorithm).
func isAcyclic(g *Digraph) bool {
	indeg := map[uint64]int{}
	var queue []uint64
	for _, n := range g.Nodes() {
		if indeg[n] = len(g.Preds(n)); indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	seen := 0
	for ; len(queue) > 0; queue = queue[1:] {
		seen++
		for _, v := range g.Succs(queue[0]) {
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return seen == g.NumNodes()
}

// refPathGraph is PathGraph assembled from the oracles: refSimplePaths
// per ordered pair over refRemoveBackEdges, pairs in the order of set.
func refPathGraph(g *Digraph, root uint64, set []uint64, maxPaths, maxLen int) []WEdge {
	acyclic := refRemoveBackEdges(g, root)
	excl := map[uint64]bool{}
	for _, n := range set {
		excl[n] = true
	}
	var want []WEdge
	for _, vi := range set {
		for _, vj := range set {
			if vi == vj {
				continue
			}
			for _, p := range refSimplePaths(acyclic, vi, vj, excl, maxPaths, maxLen) {
				want = append(want, WEdge{From: vi, To: vj, Weight: float64(len(p)), Path: p})
			}
		}
	}
	return want
}

// pathLen is the PathGraph weight the oracle comparisons use.
func pathLen(p []uint64) float64 { return float64(len(p)) }

func randomDigraph(rng *rand.Rand) *Digraph {
	n := 2 + rng.Intn(14)
	nodes := make([]uint64, n)
	for i := range nodes {
		nodes[i] = uint64(rng.Intn(3 * n))
	}
	var edges []Edge
	for i := 0; i < 2*n; i++ {
		edges = append(edges, Edge{nodes[rng.Intn(n)], nodes[rng.Intn(n)]})
	}
	return New(nodes, edges)
}

// PathGraph must equal the per-pair enumeration over the back-edge-free
// graph, pair by pair and path by path, including the order of paths
// and the bounds' truncation points.
func TestPathGraphMatchesPerPairEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		g := randomDigraph(rng)
		nodes := g.Nodes()
		root := nodes[rng.Intn(len(nodes))]
		var set []uint64
		for _, n := range nodes {
			if rng.Intn(3) == 0 {
				set = append(set, n)
			}
		}
		set = append(set, 1<<40) // absent from the graph: no paths
		maxPaths, maxLen := rng.Intn(4), rng.Intn(6)
		want := refPathGraph(g, root, set, maxPaths, maxLen)
		got := g.PathGraph(root, set, maxPaths, maxLen, pathLen)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("iter %d: PathGraph\n got %v\nwant %v", iter, got, want)
		}
	}
}

// FuzzPathGraph checks PathGraph, and with it the pruning of walks that
// cannot reach their destination, against the oracles on fuzzed graphs
// and bounds. data lists edges as byte pairs over at most 16 nodes;
// relevant picks the node set by bit, root the DFS root.
func FuzzPathGraph(f *testing.F) {
	// A chain of four diamonds 0..12 behind node 13 (13→0): the paths
	// from 0 towards 13 are all dead ends.
	var chain []byte
	for _, e := range append(diamondChain(4), Edge{13, 0}) {
		chain = append(chain, byte(e.From), byte(e.To))
	}
	f.Add(chain, uint8(13), uint16(1<<13|1), uint8(0), uint8(0))
	f.Add(chain, uint8(13), uint16(1<<13|1<<12|1), uint8(3), uint8(8))
	f.Add([]byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 1}, uint8(0), uint16(0xf), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, root uint8, relevant uint16, maxPaths, maxLen uint8) {
		const n = 16
		id := func(b byte) uint64 { return 5 * uint64(b%n) } // sparse ids
		var edges []Edge
		for i := 0; i+1 < len(data) && i < 80; i += 2 {
			edges = append(edges, Edge{id(data[i]), id(data[i+1])})
		}
		g := New(nil, edges)
		var set []uint64
		for b := byte(0); b < n; b++ {
			if relevant&(1<<b) != 0 {
				set = append(set, id(b))
			}
		}
		set = append(set, 1<<40)
		mp, ml := int(maxPaths%8), int(maxLen%(n+4))
		want := refPathGraph(g, id(root), set, mp, ml)
		got := g.PathGraph(id(root), set, mp, ml, pathLen)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("PathGraph\n got %v\nwant %v", got, want)
		}
	})
}

// refMaximumSpanningForest is the map-based Prim the densely indexed
// version replaced, kept as the reference.
func refMaximumSpanningForest(nodes []uint64, edges []WEdge) []WEdge {
	if len(nodes) == 0 {
		return nil
	}
	adj := make(map[uint64][]WEdge, len(nodes))
	nodeSet := make(map[uint64]bool, len(nodes))
	for _, n := range nodes {
		nodeSet[n] = true
	}
	for _, e := range edges {
		if !nodeSet[e.From] || !nodeSet[e.To] || e.From == e.To {
			continue
		}
		adj[e.From] = append(adj[e.From], e)
		adj[e.To] = append(adj[e.To], e)
	}
	better := func(a, b WEdge) bool {
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
	for u := range adj {
		es := adj[u]
		sort.Slice(es, func(i, j int) bool { return better(es[i], es[j]) })
	}
	inTree := make(map[uint64]bool, len(nodes))
	var chosen []WEdge
	roots := append([]uint64(nil), nodes...)
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, root := range roots {
		if inTree[root] {
			continue
		}
		inTree[root] = true
		frontier := append([]WEdge(nil), adj[root]...)
		for len(frontier) > 0 {
			bestIdx := -1
			for i, e := range frontier {
				if inTree[e.From] == inTree[e.To] {
					continue
				}
				if bestIdx < 0 || better(e, frontier[bestIdx]) {
					bestIdx = i
				}
			}
			if bestIdx < 0 {
				break
			}
			e := frontier[bestIdx]
			frontier = append(frontier[:bestIdx], frontier[bestIdx+1:]...)
			newNode := e.To
			if inTree[newNode] {
				newNode = e.From
			}
			inTree[newNode] = true
			chosen = append(chosen, e)
			frontier = append(frontier, adj[newNode]...)
			kept := frontier[:0]
			for _, f := range frontier {
				if inTree[f.From] != inTree[f.To] {
					kept = append(kept, f)
				}
			}
			frontier = kept
		}
	}
	sort.Slice(chosen, func(i, j int) bool {
		if chosen[i].From != chosen[j].From {
			return chosen[i].From < chosen[j].From
		}
		return chosen[i].To < chosen[j].To
	})
	return chosen
}

// The densely indexed Prim must choose exactly the reference's edges —
// the same Path among parallel edges of equal weight, endpoints and
// length, so the candidate sort must permute ties as before.
func TestMSTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		// Few nodes and many edges give long candidate lists (past the
		// sort's insertion-sort cutoff) full of ties.
		n := 1 + rng.Intn(8)
		var nodes []uint64
		for i := 0; i < n; i++ {
			nodes = append(nodes, uint64(rng.Intn(2*n)))
		}
		var edges []WEdge
		for i := rng.Intn(150); i > 0; i-- {
			from, to := uint64(rng.Intn(2*n+1)), uint64(rng.Intn(2*n+1))
			path := []uint64{from, uint64(rng.Intn(100)), to}[:2+rng.Intn(2)]
			edges = append(edges, WEdge{From: from, To: to, Weight: float64(rng.Intn(3)), Path: path})
		}
		got, want := MaximumSpanningForest(nodes, edges), refMaximumSpanningForest(nodes, edges)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("iter %d: MST\n got %v\nwant %v", iter, got, want)
		}
	}
}
