package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// hasEdge reports whether g holds the edge from -> to.
func hasEdge(g *Digraph, from, to uint64) bool { return slices.Contains(g.Succs(from), to) }

// pathsBetween picks the paths from src to dst out of a path graph.
func pathsBetween(wedges []WEdge, src, dst uint64) [][]uint64 {
	var out [][]uint64
	for _, e := range wedges {
		if e.From == src && e.To == dst {
			out = append(out, e.Path)
		}
	}
	return out
}

// diamondChain returns the edges of a chain of k diamonds from node 0:
// each diamond forks into two arms that join at the next node. It holds
// 2^k paths from 0 to its last node, 3k.
func diamondChain(k int) []Edge {
	var edges []Edge
	for i := 0; i < k; i++ {
		cur := uint64(3 * i)
		a, b, next := cur+1, cur+2, cur+3
		edges = append(edges, Edge{cur, a}, Edge{cur, b}, Edge{a, next}, Edge{b, next})
	}
	return edges
}

// New adds the nodes and edges it is given: missing endpoints are
// added, a repeated edge is dropped, ids ascend and successors keep the
// order of the edge list.
func TestAddNodeEdge(t *testing.T) {
	g := New([]uint64{3, 9}, []Edge{{1, 2}, {1, 2}, {2, 3}, {2, 1}, {2, 7}})
	if g.NumNodes() != 5 {
		t.Errorf("nodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4 (duplicate dropped)", g.NumEdges())
	}
	if !reflect.DeepEqual(g.Nodes(), []uint64{1, 2, 3, 7, 9}) {
		t.Errorf("Nodes = %v, want ascending ids", g.Nodes())
	}
	if !hasEdge(g, 1, 2) || hasEdge(g, 3, 2) {
		t.Error("edges wrong")
	}
	if !hasNode(g, 9) || hasNode(g, 10) {
		t.Error("HasNode wrong")
	}
	if got := g.Succs(2); !reflect.DeepEqual(got, []uint64{3, 1, 7}) {
		t.Errorf("Succs(2) = %v, want edge-list order [3 1 7]", got)
	}
	if got := g.Preds(3); len(got) != 1 || got[0] != 2 {
		t.Errorf("Preds(3) = %v", got)
	}
	if got := g.Succs(99); got != nil {
		t.Errorf("Succs of a missing node = %v", got)
	}
	if g := New(nil, nil); g.NumNodes() != 0 || g.NumEdges() != 0 || len(g.Edges()) != 0 {
		t.Errorf("empty graph = %v", g)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := New(nil, []Edge{{5, 1}, {2, 9}, {2, 3}})
	es := g.Edges()
	want := []Edge{{2, 3}, {2, 9}, {5, 1}}
	if len(es) != len(want) {
		t.Fatalf("edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("edge[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

// With every node relevant, PathGraph's paths are exactly the graph's
// edges minus the DFS back edges.
func forwardEdges(g *Digraph, root uint64) []Edge {
	var out []Edge
	for _, e := range g.PathGraph(root, g.Nodes(), 0, 0, nil) {
		out = append(out, Edge{e.From, e.To})
	}
	slices.SortFunc(out, compareEdges)
	return out
}

func TestBackEdgesSimpleLoop(t *testing.T) {
	// a -> b -> c -> d -> a  (paper Fig 3: back edge d->a removed)
	g := New(nil, []Edge{{1, 2}, {2, 3}, {3, 4}, {4, 1}})
	back := refBackEdges(g, 1)
	if len(back) != 1 || back[0] != (Edge{4, 1}) {
		t.Errorf("back edges = %v, want [{4 1}]", back)
	}
	if got, want := forwardEdges(g, 1), []Edge{{1, 2}, {2, 3}, {3, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("walked edges = %v, want %v", got, want)
	}
	wedges := g.PathGraph(1, []uint64{1, 4}, 0, 0, nil)
	if got := pathsBetween(wedges, 1, 4); !reflect.DeepEqual(got, [][]uint64{{1, 2, 3, 4}}) {
		t.Errorf("paths 1..4 = %v", got)
	}
	if got := pathsBetween(wedges, 4, 1); len(got) != 0 {
		t.Errorf("paths 4..1 = %v, want none (back edge)", got)
	}
}

func TestBackEdgesNestedLoops(t *testing.T) {
	// outer: 1->2->3->4->1 ; inner: 2->3->2 ; plus exit 4->5
	g := New(nil, []Edge{{1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 1}, {4, 5}})
	want := []Edge{{1, 2}, {2, 3}, {3, 4}, {4, 5}}
	if got := forwardEdges(g, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("walked edges = %v, want the forward structure %v", got, want)
	}
	if got := refBackEdges(g, 1); !reflect.DeepEqual(got, []Edge{{3, 2}, {4, 1}}) {
		t.Errorf("back edges = %v", got)
	}
}

func TestBackEdgesUnreachableComponent(t *testing.T) {
	// Disconnected cycle 10->11->10 must still be classified.
	g := New(nil, []Edge{{1, 2}, {10, 11}, {11, 10}})
	if got, want := forwardEdges(g, 1), []Edge{{1, 2}, {10, 11}}; !reflect.DeepEqual(got, want) {
		t.Errorf("walked edges = %v, want %v", got, want)
	}
}

// Property: dropping the back edges always yields an acyclic graph on
// random graphs and never invents edges, and PathGraph walks exactly
// the edges that remain.
func TestRemoveBackEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var edges []Edge
		for i := 0; i < n*2; i++ {
			edges = append(edges, Edge{uint64(rng.Intn(n)), uint64(rng.Intn(n))})
		}
		g := New(nil, edges)
		acyc := refRemoveBackEdges(g, 0)
		if !isAcyclic(acyc) {
			return false
		}
		for _, e := range acyc.Edges() {
			if !hasEdge(g, e.From, e.To) {
				return false
			}
		}
		return slices.Equal(forwardEdges(g, 0), acyc.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimplePathsFig3(t *testing.T) {
	// Paper Fig 3(c): a=1,b=2,c=3,d=4,e=5 with edges a->b,b->c,a->c,c->d,b->e
	// after back-edge removal. Relevant nodes {a,c,e}. Paths a..c avoiding
	// other relevant nodes: a->b->c and a->c.
	g := New(nil, []Edge{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {2, 5}})
	wedges := g.PathGraph(1, []uint64{1, 3, 5}, 0, 0, nil)
	if paths := pathsBetween(wedges, 1, 3); !reflect.DeepEqual(paths, [][]uint64{{1, 2, 3}, {1, 3}}) {
		t.Fatalf("paths = %v, want [[1 2 3] [1 3]]", paths)
	}
	// a->e avoiding c: a->b->e only.
	if paths := pathsBetween(wedges, 1, 5); len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("paths a..e = %v", paths)
	}
	// c->e: none (no edge from c to e side without going back).
	if got := pathsBetween(wedges, 3, 5); len(got) != 0 {
		t.Errorf("paths c..e = %v, want none", got)
	}
}

func TestSimplePathsEndpointsMayBeExcluded(t *testing.T) {
	g := New(nil, []Edge{{1, 2}, {2, 3}})
	if paths := g.PathGraph(1, []uint64{1, 3}, 0, 0, nil); len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestSimplePathsDirectEdge(t *testing.T) {
	g := New(nil, []Edge{{1, 2}})
	paths := pathsBetween(g.PathGraph(1, []uint64{1, 2}, 0, 0, nil), 1, 2)
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	// A repeated node counts once.
	if got := g.PathGraph(1, []uint64{1, 2, 1, 2}, 0, 0, nil); len(got) != 1 {
		t.Fatalf("path graph over repeated nodes = %v, want one edge", got)
	}
}

func TestSimplePathsBounds(t *testing.T) {
	// Diamond ladder with 2^k paths; check maxPaths truncation.
	g := New(nil, diamondChain(8))
	nodes := []uint64{0, 24}
	if all := g.PathGraph(0, nodes, 0, 0, nil); len(all) != 256 {
		t.Fatalf("paths = %d, want 256", len(all))
	}
	if capped := g.PathGraph(0, nodes, 10, 0, nil); len(capped) != 10 {
		t.Fatalf("capped paths = %d, want 10", len(capped))
	}
	if short := g.PathGraph(0, nodes, 0, 3, nil); len(short) != 0 {
		t.Fatalf("maxLen=3 should find nothing, got %d", len(short))
	}
}

func TestSimplePathsMissingNodes(t *testing.T) {
	g := New(nil, []Edge{{1, 2}})
	if got := g.PathGraph(1, []uint64{1, 99}, 0, 0, nil); len(got) != 0 {
		t.Errorf("paths to or from a missing node: %v", got)
	}
}

// A destination no walk can reach must cost nothing, however many
// prefixes lead away from it: behind a chain of 31 diamonds (2^31 paths
// of 63 nodes, within the default 64-node bound) the walk from the
// chain's head towards the head's predecessor must return at once.
func TestPathGraphDeadEndsAreFree(t *testing.T) {
	const b = 1000 // jumps to the chain's head, node 0
	g := New(nil, append(diamondChain(31), Edge{b, 0}))
	done := make(chan []WEdge, 1)
	go func() { done <- g.PathGraph(b, []uint64{b, 0}, 64, 64, nil) }()
	select {
	case got := <-done:
		if want := []WEdge{{From: b, To: 0, Path: []uint64{b, 0}}}; !reflect.DeepEqual(got, want) {
			t.Errorf("path graph = %v, want only %v", got, want)
		}
	case <-time.After(time.Second):
		t.Fatal("PathGraph still walking the dead-end diamond chain after 1s")
	}
}

func TestMSTLine(t *testing.T) {
	nodes := []uint64{1, 2, 3}
	edges := []WEdge{
		{From: 1, To: 2, Weight: 5, Path: []uint64{1, 2}},
		{From: 2, To: 3, Weight: 3, Path: []uint64{2, 3}},
		{From: 1, To: 3, Weight: 1, Path: []uint64{1, 9, 3}},
	}
	mst := MaximumSpanningForest(nodes, edges)
	if len(mst) != 2 {
		t.Fatalf("mst = %v", mst)
	}
	total := 0.0
	for _, e := range mst {
		total += e.Weight
	}
	if total != 8 {
		t.Errorf("weight = %v, want 8", total)
	}
}

func TestMSTPicksHeaviestParallelEdge(t *testing.T) {
	nodes := []uint64{1, 2}
	edges := []WEdge{
		{From: 1, To: 2, Weight: 1, Path: []uint64{1, 7, 2}},
		{From: 1, To: 2, Weight: 9, Path: []uint64{1, 2}},
	}
	mst := MaximumSpanningForest(nodes, edges)
	if len(mst) != 1 || mst[0].Weight != 9 {
		t.Fatalf("mst = %v", mst)
	}
}

func TestMSTForestOnDisconnected(t *testing.T) {
	nodes := []uint64{1, 2, 10, 11}
	edges := []WEdge{
		{From: 1, To: 2, Weight: 1},
		{From: 10, To: 11, Weight: 2},
	}
	mst := MaximumSpanningForest(nodes, edges)
	if len(mst) != 2 {
		t.Fatalf("forest = %v", mst)
	}
}

func TestMSTIgnoresSelfLoopsAndForeignEdges(t *testing.T) {
	nodes := []uint64{1, 2}
	edges := []WEdge{
		{From: 1, To: 1, Weight: 100},
		{From: 5, To: 6, Weight: 100},
		{From: 1, To: 2, Weight: 1},
	}
	mst := MaximumSpanningForest(nodes, edges)
	if len(mst) != 1 || mst[0].From != 1 || mst[0].To != 2 {
		t.Fatalf("mst = %v", mst)
	}
}

func TestMSTEmpty(t *testing.T) {
	if got := MaximumSpanningForest(nil, nil); got != nil {
		t.Errorf("empty = %v", got)
	}
	if got := MaximumSpanningForest([]uint64{7}, nil); len(got) != 0 {
		t.Errorf("singleton = %v", got)
	}
}

// Property: the spanning forest has exactly nodes-components edges, never
// exceeds the densest possible weight, and contains no cycle.
func TestMSTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		nodes := make([]uint64, n)
		for i := range nodes {
			nodes[i] = uint64(i)
		}
		var edges []WEdge
		for i := 0; i < n*3; i++ {
			a, b := uint64(rng.Intn(n)), uint64(rng.Intn(n))
			edges = append(edges, WEdge{From: a, To: b, Weight: float64(rng.Intn(50))})
		}
		mst := MaximumSpanningForest(nodes, edges)
		// Count components of the undirected edge set.
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
		union := func(a, b int) bool {
			ra, rb := find(a), find(b)
			if ra == rb {
				return false
			}
			parent[ra] = rb
			return true
		}
		for _, e := range edges {
			if e.From != e.To {
				union(int(e.From), int(e.To))
			}
		}
		comps := 0
		for i := range parent {
			if find(i) == i {
				comps++
			}
		}
		if len(mst) != n-comps {
			return false
		}
		// MST edges must be acyclic (union never sees a duplicate root).
		for i := range parent {
			parent[i] = i
		}
		for _, e := range mst {
			if !union(int(e.From), int(e.To)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Prim's result weight matches Kruskal's on random graphs.
func TestMSTMatchesKruskal(t *testing.T) {
	kruskal := func(n int, edges []WEdge) float64 {
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
		// Sort by descending weight.
		es := append([]WEdge(nil), edges...)
		for i := 0; i < len(es); i++ {
			for j := i + 1; j < len(es); j++ {
				if es[j].Weight > es[i].Weight {
					es[i], es[j] = es[j], es[i]
				}
			}
		}
		total := 0.0
		for _, e := range es {
			if e.From == e.To {
				continue
			}
			ra, rb := find(int(e.From)), find(int(e.To))
			if ra != rb {
				parent[ra] = rb
				total += e.Weight
			}
		}
		return total
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		nodes := make([]uint64, n)
		for i := range nodes {
			nodes[i] = uint64(i)
		}
		var edges []WEdge
		for i := 0; i < n*4; i++ {
			edges = append(edges, WEdge{
				From:   uint64(rng.Intn(n)),
				To:     uint64(rng.Intn(n)),
				Weight: float64(rng.Intn(30)),
			})
		}
		total := 0.0
		for _, e := range MaximumSpanningForest(nodes, edges) {
			total += e.Weight
		}
		return total == kruskal(n, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// hasNode reports whether n is in the graph.
func hasNode(g *Digraph, n uint64) bool { return g.index(n) >= 0 }
