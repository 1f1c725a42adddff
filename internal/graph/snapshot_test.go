package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// SimplePaths bounds paths by their node count, endpoints included: on
// the chain 1→2→3 the only path has three nodes.
func TestSimplePathsMaxLenCountsNodes(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if got := g.SimplePaths(1, 3, nil, 0, 2); len(got) != 0 {
		t.Errorf("maxLen=2: paths %v, want none (the only path has 3 nodes)", got)
	}
	if got := g.SimplePaths(1, 3, nil, 0, 3); !reflect.DeepEqual(got, [][]uint64{{1, 2, 3}}) {
		t.Errorf("maxLen=3: paths %v, want [[1 2 3]]", got)
	}
	if got := g.SimplePaths(1, 2, nil, 0, 2); !reflect.DeepEqual(got, [][]uint64{{1, 2}}) {
		t.Errorf("maxLen=2: direct edge paths %v, want [[1 2]]", got)
	}
}

// refSimplePaths is the map-based recursive enumeration the snapshot
// walk replaced, kept as the reference (with paths bounded to maxLen
// nodes).
func refSimplePaths(g *Digraph, src, dst uint64, excluded map[uint64]bool, maxPaths, maxLen int) [][]uint64 {
	var out [][]uint64
	if !g.HasNode(src) || !g.HasNode(dst) {
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

// refBackEdges is the map-based DFS classification the snapshot's
// per-edge back marks replaced.
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
	if g.HasNode(root) {
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

// refRemoveBackEdges is the Clone + RemoveEdge construction the
// snapshot's per-edge back marks replaced.
func refRemoveBackEdges(g *Digraph, root uint64) *Digraph {
	c := g.Clone()
	for _, e := range refBackEdges(g, root) {
		c.RemoveEdge(e.From, e.To)
	}
	return c
}

// sameGraph compares node order and every node's ordered successor and
// predecessor lists.
func sameGraph(a, b *Digraph) bool {
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		return false
	}
	for _, n := range a.Nodes() {
		if len(a.Succs(n)) != len(b.Succs(n)) || len(a.Preds(n)) != len(b.Preds(n)) {
			return false
		}
		for i, v := range a.Succs(n) {
			if b.Succs(n)[i] != v {
				return false
			}
		}
		for i, v := range a.Preds(n) {
			if b.Preds(n)[i] != v {
				return false
			}
		}
	}
	return true
}

func randomDigraph(rng *rand.Rand) *Digraph {
	g := New()
	n := 2 + rng.Intn(14)
	for i := 0; i < n; i++ {
		g.AddNode(uint64(rng.Intn(3 * n)))
	}
	nodes := g.Nodes()
	for i := 0; i < 2*len(nodes); i++ {
		g.AddEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))])
	}
	return g
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
		excl := map[uint64]bool{}
		for _, n := range nodes {
			if rng.Intn(3) == 0 {
				set = append(set, n)
				excl[n] = true
			}
		}
		set = append(set, 1<<40) // absent from the graph: no paths
		maxPaths, maxLen := rng.Intn(4), rng.Intn(6)
		if got, want := g.BackEdges(root), refBackEdges(g, root); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("iter %d: BackEdges %v, reference %v", iter, got, want)
		}
		acyclic := refRemoveBackEdges(g, root)
		if got := g.RemoveBackEdges(root); !sameGraph(got, acyclic) {
			t.Fatalf("iter %d: RemoveBackEdges differs from Clone+RemoveEdge", iter)
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
		got := g.PathGraph(root, set, maxPaths, maxLen, func(p []uint64) float64 { return float64(len(p)) })
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("iter %d: PathGraph\n got %v\nwant %v", iter, got, want)
		}
		// The single-pair wrapper over the cyclic graph.
		src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		gotP := g.SimplePaths(src, dst, excl, maxPaths, maxLen)
		wantP := refSimplePaths(g, src, dst, excl, maxPaths, maxLen)
		if len(gotP) != len(wantP) || (len(gotP) > 0 && !reflect.DeepEqual(gotP, wantP)) {
			t.Fatalf("iter %d: SimplePaths(%d,%d)\n got %v\nwant %v", iter, src, dst, gotP, wantP)
		}
	}
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
